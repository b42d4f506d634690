package linkpred

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// fig7Graph reconstructs the counterexample graph of paper Fig. 7: the
// (missing) target is (u, v) with deg(u)=3, deg(v)=4, two common neighbors
// c1 (deg 3) and c2 (deg 4). Protectors:
//
//	p1 = c1–z1   (changes c1's degree only)
//	p2 = u–c1    (removes c1 from the common neighborhood)
//	p3 = u–x     (shrinks Γ(u) without touching the intersection)
//	p4 = v–y1    (shrinks Γ(v) without touching the intersection)
func fig7Graph() (g *graph.Graph, u, v graph.NodeID, p1, p2, p3, p4 graph.Edge) {
	g = graph.New(10)
	u, v = 0, 1
	c1, c2 := graph.NodeID(2), graph.NodeID(3)
	x, y1, y2 := graph.NodeID(4), graph.NodeID(5), graph.NodeID(6)
	z1, z2, z3 := graph.NodeID(7), graph.NodeID(8), graph.NodeID(9)
	for _, e := range [][2]graph.NodeID{
		{u, c1}, {u, c2}, {u, x}, // deg(u) = 3
		{v, c1}, {v, c2}, {v, y1}, {v, y2}, // deg(v) = 4
		{c1, z1},           // deg(c1) = 3
		{c2, z2}, {c2, z3}, // deg(c2) = 4
	} {
		g.AddEdge(e[0], e[1])
	}
	return g, u, v,
		graph.NewEdge(c1, z1), graph.NewEdge(u, c1), graph.NewEdge(u, x), graph.NewEdge(v, y1)
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFig7InitialScores(t *testing.T) {
	g, u, v, _, _, _, _ := fig7Graph()
	for _, tc := range []struct {
		kind IndexKind
		want float64
	}{
		{CommonNeighbors, 2},
		{Jaccard, 2.0 / 5},
		{Salton, 2 / math.Sqrt(12)},
		{Sorensen, 4.0 / 7},
		{HubPromoted, 2.0 / 3},
		{HubDepressed, 2.0 / 4},
		{LeichtHolmeNewman, 2.0 / 12},
		{AdamicAdar, 1/math.Log(3) + 1/math.Log(4)},
		{ResourceAllocation, 1.0/3 + 1.0/4},
	} {
		if got := Score(g, tc.kind, u, v); !almostEqual(got, tc.want) {
			t.Errorf("%v initial score = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

// Paper Sec. VI-D: each classical index admits a deletion that *increases*
// the target's similarity score, so the induced dissimilarity function is
// not monotone and the greedy guarantees do not transfer. Each case below
// is one of the paper's explicit (a)/(b)/(c) scenarios.
func TestSectionVIDNonMonotonicity(t *testing.T) {
	g, u, v, p1, p2, p3, p4 := fig7Graph()
	scoreAfter := func(kind IndexKind, del graph.Edge) float64 {
		h := g.Clone()
		h.RemoveEdgeE(del)
		return Score(h, kind, u, v)
	}
	base := func(kind IndexKind) float64 { return Score(g, kind, u, v) }

	type caseSpec struct {
		kind   IndexKind
		same   *graph.Edge // deletion leaving the score unchanged (case a)
		lowers graph.Edge  // deletion lowering the score (case b: dissimilarity up)
		raises graph.Edge  // deletion raising the score (case c: monotonicity broken)
	}
	cases := []caseSpec{
		{kind: Jaccard, same: &p1, lowers: p2, raises: p3},
		{kind: Salton, same: &p1, lowers: p2, raises: p3},
		{kind: Sorensen, same: &p1, lowers: p2, raises: p3},
		{kind: HubPromoted, same: &p1, lowers: p2, raises: p3},
		{kind: HubDepressed, same: &p1, lowers: p2, raises: p4},
		{kind: LeichtHolmeNewman, same: &p1, lowers: p2, raises: p3},
		{kind: AdamicAdar, lowers: p2, raises: p1},
		{kind: ResourceAllocation, lowers: p2, raises: p1},
	}
	for _, c := range cases {
		b := base(c.kind)
		if c.same != nil {
			if got := scoreAfter(c.kind, *c.same); !almostEqual(got, b) {
				t.Errorf("%v: deleting case-a edge changed score %v -> %v", c.kind, b, got)
			}
		}
		if got := scoreAfter(c.kind, c.lowers); got >= b {
			t.Errorf("%v: case-b deletion should lower score, %v -> %v", c.kind, b, got)
		}
		if got := scoreAfter(c.kind, c.raises); got <= b {
			t.Errorf("%v: case-c deletion should RAISE score (non-monotone), %v -> %v", c.kind, b, got)
		}
	}
}

// Paper Sec. VI-D, link additions: adding edges never breaks existing
// target subgraphs, so similarity is non-decreasing under addition and the
// addition-based dissimilarity cannot be monotone-increasing.
func TestPropertyLinkAdditionNeverHelps(t *testing.T) {
	for _, pattern := range motif.Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(20, 3, 0.5, rng)
			targets := datasets.SampleTargets(g, 3, rng)
			work := g.Clone()
			for _, tg := range targets {
				work.RemoveEdgeE(tg)
			}
			before, _ := motif.CountAll(work, pattern, targets)
			// Add a random absent non-target edge.
			n := work.NumNodes()
			for tries := 0; tries < 64; tries++ {
				a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if a == b || work.HasEdge(a, b) {
					continue
				}
				e := graph.NewEdge(a, b)
				isTarget := false
				for _, tg := range targets {
					if tg == e {
						isTarget = true
						break
					}
				}
				if isTarget {
					continue
				}
				work.AddEdgeE(e)
				break
			}
			after, _ := motif.CountAll(work, pattern, targets)
			return after >= before
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

func TestKatzScore(t *testing.T) {
	// Path 0-2-1: one 2-path between 0 and 1 → Katz = β².
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	beta := 0.1
	got := KatzScore(g, 0, 1, beta, 4)
	// paths 0→1: length 2 (0-2-1), length 4 (0-2-0-2-1, 0-2-1-2-1): walks
	// actually: Katz counts walks; with maxLen 4 there are 2 walks of
	// length 4.
	want := beta*beta + 2*math.Pow(beta, 4)
	if !almostEqual(got, want) {
		t.Fatalf("Katz = %v, want %v", got, want)
	}
}

func TestKatzZeroWhenDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if got := KatzScore(g, 0, 2, 0.1, 5); got != 0 {
		t.Fatalf("Katz across components = %v, want 0", got)
	}
}

func TestAUCExtremes(t *testing.T) {
	// Targets with common neighbors vs isolated-pair negatives: AUC = 1.
	g := graph.New(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	targets := []graph.Edge{graph.NewEdge(0, 1)}
	nonEdges := []graph.Edge{graph.NewEdge(3, 4), graph.NewEdge(4, 5)}
	if auc := AUC(g, CommonNeighbors, targets, nonEdges); auc != 1 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
	// All scores zero → all ties → AUC = 0.5.
	g2 := graph.New(6)
	g2.AddEdge(0, 1)
	if auc := AUC(g2, CommonNeighbors, []graph.Edge{graph.NewEdge(2, 3)}, nonEdges); auc != 0.5 {
		t.Fatalf("tie AUC = %v, want 0.5", auc)
	}
	if auc := AUC(g2, CommonNeighbors, nil, nonEdges); auc != 0.5 {
		t.Fatalf("empty AUC = %v, want 0.5", auc)
	}
}

func TestSampleNonEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.Complete(6)
	g.RemoveEdge(0, 1)
	g.RemoveEdge(2, 3)
	exclude := []graph.Edge{graph.NewEdge(0, 1)}
	got := SampleNonEdges(g, 1, exclude, rng)
	if len(got) != 1 || got[0] != graph.NewEdge(2, 3) {
		t.Fatalf("SampleNonEdges = %v, want the only non-excluded non-edge 2-3", got)
	}
}

func TestRankTargets(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	targets := []graph.Edge{graph.NewEdge(0, 1)}
	pool := []graph.Edge{graph.NewEdge(3, 4), graph.NewEdge(4, 5)}
	reports := RankTargets(g, CommonNeighbors, targets, pool)
	if len(reports) != 1 {
		t.Fatal("one report expected")
	}
	r := reports[0]
	if r.Rank != 1 || r.PoolSize != 3 || r.Score != 1 {
		t.Fatalf("rank report = %+v", r)
	}
}

func TestIndexKindString(t *testing.T) {
	for _, k := range AllIndices {
		if s := k.String(); s == "" || s[0] == 'I' && s != "IndexKind(99)" && len(s) < 3 {
			t.Fatalf("bad name %q", s)
		}
	}
	if IndexKind(99).String() != "IndexKind(99)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestSummarizeDefense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.BarabasiAlbertTriad(60, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 3, rng)
	lines := SummarizeDefense(g, targets, 20, rng)
	if len(lines) != len(TriangleIndices) {
		t.Fatalf("got %d lines, want %d", len(lines), len(TriangleIndices))
	}
}
