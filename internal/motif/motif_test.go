package motif

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// gainOf reads e's gain through the id-keyed API; an edge outside the
// interned universe has zero gain.
func gainOf(ix *Index, e graph.Edge) int {
	if id := ix.Interner().ID(e); id != graph.NoEdge {
		return ix.GainID(id)
	}
	return 0
}

// candidateEdges is the index's Lemma 5 candidate set as edges, in
// canonical order.
func candidateEdges(ix *Index) []graph.Edge {
	return ix.Interner().Edges(ix.AppendCandidateIDs(nil))
}

// cycle returns the cycle graph C_n (n >= 3).
func cycle(n int) *graph.Graph {
	g := gen.Path(n)
	g.AddEdge(0, graph.NodeID(n-1))
	return g
}

// triangleFixture builds the simplest Triangle scenario: target (0,1) with
// common neighbors 2 and 3 (phase-1 graph, target already absent).
func triangleFixture() (*graph.Graph, graph.Edge) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	g.AddEdge(0, 3)
	g.AddEdge(3, 1)
	return g, graph.NewEdge(0, 1)
}

func TestTriangleCount(t *testing.T) {
	g, target := triangleFixture()
	if got := Count(g, Triangle, target); got != 2 {
		t.Fatalf("triangle count = %d, want 2", got)
	}
}

func TestTriangleInstancesEdges(t *testing.T) {
	g, target := triangleFixture()
	insts := Instances(g, Triangle, []graph.Edge{target})
	if len(insts) != 2 {
		t.Fatalf("instances = %d, want 2", len(insts))
	}
	want := map[string]bool{}
	for _, in := range insts {
		if len(in.Edges) != 2 {
			t.Fatalf("triangle instance has %d edges, want 2", len(in.Edges))
		}
		es := append([]graph.Edge(nil), in.Edges...)
		graph.SortEdges(es)
		want[es[0].String()+","+es[1].String()] = true
	}
	if !want["0-2,1-2"] || !want["0-3,1-3"] {
		t.Fatalf("unexpected instance edge sets: %v", want)
	}
}

func TestRectangleCount(t *testing.T) {
	// target (0,1); 3-path 0-2-3-1 forms one rectangle.
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	target := graph.NewEdge(0, 1)
	if got := Count(g, Rectangle, target); got != 1 {
		t.Fatalf("rectangle count = %d, want 1", got)
	}
	// Add a second disjoint 3-path 0-4... needs more nodes.
	g2 := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}} {
		g2.AddEdge(e[0], e[1])
	}
	if got := Count(g2, Rectangle, target); got != 2 {
		t.Fatalf("rectangle count = %d, want 2", got)
	}
}

func TestRectangleExcludesDegenerate(t *testing.T) {
	// A triangle 0-2, 2-1 must NOT count as a rectangle (needs 4 distinct
	// nodes), and paths through the endpoints themselves are excluded.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	if got := Count(g, Rectangle, graph.NewEdge(0, 1)); got != 0 {
		t.Fatalf("degenerate rectangle count = %d, want 0", got)
	}
}

func TestRecTriCount(t *testing.T) {
	// target (0,1); common neighbor 2; triangle on the u side via 3:
	// edges 0-2, 2-1, 0-3, 3-2.
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	g.AddEdge(0, 3)
	g.AddEdge(3, 2)
	target := graph.NewEdge(0, 1)
	if got := Count(g, RecTri, target); got != 1 {
		t.Fatalf("RecTri count = %d, want 1", got)
	}
	insts := Instances(g, RecTri, []graph.Edge{target})
	if len(insts) != 1 || len(insts[0].Edges) != 4 {
		t.Fatalf("RecTri instance wrong: %+v", insts)
	}
	// Symmetric orientation on the v side: add 1-4, 4-2.
	g.AddNode()
	g.AddEdge(1, 4)
	g.AddEdge(4, 2)
	if got := Count(g, RecTri, target); got != 2 {
		t.Fatalf("RecTri count with both orientations = %d, want 2", got)
	}
}

func TestRecTriExcludesTargetEndpoints(t *testing.T) {
	// The hanging triangle node x must not be the opposite target endpoint.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	// x would have to be 1 (common neighbor of 0 and 2 is none besides...).
	if got := Count(g, RecTri, graph.NewEdge(0, 1)); got != 0 {
		t.Fatalf("RecTri degenerate count = %d, want 0", got)
	}
}

func TestParsePattern(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Pattern
	}{{"Triangle", Triangle}, {"rectangle", Rectangle}, {"RecTri", RecTri}} {
		got, err := ParsePattern(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePattern(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePattern("Hexagon"); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

func TestPatternString(t *testing.T) {
	if Triangle.String() != "Triangle" || Rectangle.String() != "Rectangle" || RecTri.String() != "RecTri" {
		t.Fatal("pattern names wrong")
	}
}

func TestNewIndexRejectsPresentTarget(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if _, err := NewIndex(g, Triangle, []graph.Edge{graph.NewEdge(0, 1)}); err == nil {
		t.Fatal("expected error: target still present in graph")
	}
}

func TestIndexInitialStateMatchesCount(t *testing.T) {
	g, target := triangleFixture()
	ix, err := NewIndex(g, Triangle, []graph.Edge{target})
	if err != nil {
		t.Fatal(err)
	}
	if ix.TotalSimilarity() != 2 || ix.Similarities()[0] != 2 || ix.NumInstances() != 2 {
		t.Fatalf("index initial state wrong: total=%d", ix.TotalSimilarity())
	}
	if gainOf(ix, graph.NewEdge(0, 2)) != 1 {
		t.Fatalf("gain of 0-2 = %d, want 1", gainOf(ix, graph.NewEdge(0, 2)))
	}
}

func TestIndexDeleteEdge(t *testing.T) {
	g, target := triangleFixture()
	ix, _ := NewIndex(g, Triangle, []graph.Edge{target})
	if broken := ix.DeleteEdge(graph.NewEdge(0, 2)); broken != 1 {
		t.Fatalf("broken = %d, want 1", broken)
	}
	if ix.TotalSimilarity() != 1 {
		t.Fatalf("similarity after delete = %d, want 1", ix.TotalSimilarity())
	}
	// The partner edge of the dead instance now has zero gain.
	if gainOf(ix, graph.NewEdge(1, 2)) != 0 {
		t.Fatalf("partner gain = %d, want 0", gainOf(ix, graph.NewEdge(1, 2)))
	}
	// Deleting the same edge twice is a no-op.
	if broken := ix.DeleteEdge(graph.NewEdge(0, 2)); broken != 0 {
		t.Fatalf("second delete broke %d", broken)
	}
}

func TestIndexCandidateEdges(t *testing.T) {
	g, target := triangleFixture()
	g.AddNode() // node 4
	g.AddEdge(3, 4)
	// edge 3-4 participates in no target subgraph: excluded by Lemma 5.
	ix, _ := NewIndex(g, Triangle, []graph.Edge{target})
	cands := candidateEdges(ix)
	want := []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}}
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("candidates = %v, want %v", cands, want)
	}
}

func TestIndexGainForTarget(t *testing.T) {
	// Two targets sharing a protector: targets (0,1) and (0,4); node 2 is a
	// common neighbor for both, so edge 0-2 participates in both W sets.
	g := graph.New(5)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 4)
	targets := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(0, 4)}
	ix, err := NewIndex(g, Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, len(targets))
	for _, c := range []struct {
		e    graph.Edge
		want []int
	}{
		{graph.NewEdge(0, 2), []int{1, 1}},
		{graph.NewEdge(1, 2), []int{1, 0}},
		{graph.NewEdge(2, 4), []int{0, 1}},
	} {
		got, tot := ix.GainVectorIDInto(ix.Interner().ID(c.e), buf)
		if !reflect.DeepEqual(got, c.want) || tot != c.want[0]+c.want[1] {
			t.Fatalf("GainVectorIDInto(%v) = (%v,%d), want (%v,%d)", c.e, got, tot, c.want, c.want[0]+c.want[1])
		}
	}
	// A deleted edge's instances are dead: it no longer splits any gain.
	ix.DeleteEdge(graph.NewEdge(0, 2))
	if got, tot := ix.GainVectorIDInto(ix.Interner().ID(graph.NewEdge(1, 2)), buf); got != nil || tot != 0 {
		t.Fatalf("GainVectorIDInto(1-2) after deleting 0-2 = (%v,%d), want (nil,0)", got, tot)
	}
}

func TestArgmaxGainDeterministic(t *testing.T) {
	g, target := triangleFixture()
	ix, _ := NewIndex(g, Triangle, []graph.Edge{target})
	best, gain, ok := ix.ArgmaxGainID()
	if !ok || gain != 1 {
		t.Fatalf("ArgmaxGainID = %v,%d,%v", best, gain, ok)
	}
	// All gains tie at 1; the canonical-smallest edge must win.
	if e := ix.Interner().Edge(best); e != (graph.Edge{U: 0, V: 2}) {
		t.Fatalf("tie-break picked %v, want 0-2", e)
	}
}

// Property: for random graphs and random deletions, the index similarity
// always equals a from-scratch recount on the mutated graph, for every
// pattern. This pins the incremental maintenance to the ground truth.
func TestPropertyIndexMatchesRecount(t *testing.T) {
	for _, pattern := range Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(30, 3, 0.5, rng)
			edges := g.Edges()
			targets := []graph.Edge{edges[rng.Intn(len(edges))]}
			for len(targets) < 3 {
				e := edges[rng.Intn(len(edges))]
				dup := false
				for _, t := range targets {
					if t == e {
						dup = true
					}
				}
				if !dup {
					targets = append(targets, e)
				}
			}
			work := g.Clone()
			for _, t := range targets {
				work.RemoveEdgeE(t)
			}
			ix, err := NewIndex(work, pattern, targets)
			if err != nil {
				return false
			}
			// Delete up to 5 random protector edges, checking after each.
			cands := candidateEdges(ix)
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			if len(cands) > 5 {
				cands = cands[:5]
			}
			for _, p := range cands {
				ix.DeleteEdge(p)
				work.RemoveEdgeE(p)
				wantTotal, wantPer := CountAll(work, pattern, targets)
				if ix.TotalSimilarity() != wantTotal {
					return false
				}
				for i := range targets {
					if ix.Similarities()[i] != wantPer[i] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

// Property: per-edge gains reported by the index equal the recount delta.
func TestPropertyGainMatchesRecountDelta(t *testing.T) {
	for _, pattern := range Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(25, 3, 0.5, rng)
			edges := g.Edges()
			target := edges[rng.Intn(len(edges))]
			work := g.Clone()
			work.RemoveEdgeE(target)
			ix, err := NewIndex(work, pattern, []graph.Edge{target})
			if err != nil {
				return false
			}
			before := ix.TotalSimilarity()
			for _, p := range candidateEdges(ix) {
				work.RemoveEdgeE(p)
				after, _ := CountAll(work, pattern, []graph.Edge{target})
				work.AddEdgeE(p)
				if gainOf(ix, p) != before-after {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

// Fig. 1 case analysis for the Triangle pattern (paper Lemma 2 proof):
// the four protector/deleted-link location combinations yield the claimed
// marginal gains, establishing Δf(A) ≥ Δf(B) in every case.
func TestFig1TriangleCases(t *testing.T) {
	// Target (0,1) with one triangle through node 2 (edges p3=0-2, p4=1-2)
	// and spare edges p1=2-3 (outside), p2=3-0 (outside the subgraph since
	// node 3 is not a common neighbor of 0 and 1... make it so).
	build := func() *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 2) // in target subgraph
		g.AddEdge(1, 2) // in target subgraph
		g.AddEdge(2, 3) // outside
		g.AddEdge(0, 3) // outside (3 not adjacent to 1)
		return g
	}
	target := graph.NewEdge(0, 1)
	gainAfter := func(deleted []graph.Edge, p graph.Edge) int {
		g := build()
		for _, d := range deleted {
			g.RemoveEdgeE(d)
		}
		before := Count(g, Triangle, target)
		g.RemoveEdgeE(p)
		return before - Count(g, Triangle, target)
	}
	in1, in2 := graph.NewEdge(0, 2), graph.NewEdge(1, 2)
	out1, out2 := graph.NewEdge(2, 3), graph.NewEdge(0, 3)

	// Case 1 (a1): p and x both outside: Δf(A)=Δf(B)=0.
	if gainAfter(nil, out1) != 0 || gainAfter([]graph.Edge{out2}, out1) != 0 {
		t.Fatal("case 1 gains should be 0")
	}
	// Case 2 (a2): both inside the same subgraph: Δf(A)=1 > Δf(B)=0.
	if gainAfter(nil, in2) != 1 || gainAfter([]graph.Edge{in1}, in2) != 0 {
		t.Fatal("case 2 gains should be 1 then 0")
	}
	// Case 3 (a3): p inside, x outside: Δf(A)=Δf(B)=1.
	if gainAfter(nil, in2) != 1 || gainAfter([]graph.Edge{out1}, in2) != 1 {
		t.Fatal("case 3 gains should both be 1")
	}
	// Case 4 (a4): p outside, x inside: Δf(A)=Δf(B)=0.
	if gainAfter(nil, out2) != 0 || gainAfter([]graph.Edge{in1}, out2) != 0 {
		t.Fatal("case 4 gains should both be 0")
	}
}
