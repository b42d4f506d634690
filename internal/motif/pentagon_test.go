package motif

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestPentagonCount(t *testing.T) {
	// target (0,1); 4-path 0-2-3-4-1 forms exactly one pentagon.
	g := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 3}, {3, 4}, {4, 1}} {
		g.AddEdge(e[0], e[1])
	}
	target := graph.NewEdge(0, 1)
	if got := Count(g, Pentagon, target); got != 1 {
		t.Fatalf("pentagon count = %d, want 1", got)
	}
	insts := Instances(g, Pentagon, []graph.Edge{target})
	if len(insts) != 1 || len(insts[0].Edges) != 4 {
		t.Fatalf("pentagon instance wrong: %+v", insts)
	}
}

func TestPentagonNeedsFiveDistinctNodes(t *testing.T) {
	// A 4-cycle 0-2-3-1 + chord cannot be a pentagon for (0,1): any 4-path
	// would revisit a node.
	g := graph.New(4)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 3}, {3, 1}} {
		g.AddEdge(e[0], e[1])
	}
	if got := Count(g, Pentagon, graph.NewEdge(0, 1)); got != 0 {
		t.Fatalf("degenerate pentagon count = %d, want 0", got)
	}
	// Walks through u or v themselves are excluded too.
	g2 := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 1}, {1, 3}, {3, 4}, {4, 1}} {
		g2.AddEdge(e[0], e[1])
	}
	if got := Count(g2, Pentagon, graph.NewEdge(0, 1)); got != 0 {
		t.Fatalf("pentagon through endpoint = %d, want 0", got)
	}
}

func TestPentagonOnCycleGraph(t *testing.T) {
	// C5 with one edge designated the target: the remaining 4-path is the
	// single completing pentagon.
	g := cycle(5)
	target := graph.NewEdge(0, 4)
	g.RemoveEdgeE(target) // phase-1 form
	if got := Count(g, Pentagon, target); got != 1 {
		t.Fatalf("C5 pentagon count = %d, want 1", got)
	}
}

func TestPentagonParsingAndArity(t *testing.T) {
	p, err := ParsePattern("Pentagon")
	if err != nil || p != Pentagon {
		t.Fatalf("ParsePattern(Pentagon) = %v, %v", p, err)
	}
	if Pentagon.String() != "Pentagon" {
		t.Fatal("pentagon metadata wrong")
	}
	if len(AllPatterns) != 4 {
		t.Fatalf("AllPatterns = %v", AllPatterns)
	}
}

// The index machinery must be pattern-agnostic: Pentagon gains match
// recount deltas just like the paper motifs.
func TestPropertyPentagonIndexMatchesRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(22, 3, 0.5, rng)
		edges := g.Edges()
		target := edges[rng.Intn(len(edges))]
		work := g.Clone()
		work.RemoveEdgeE(target)
		ix, err := NewIndex(work, Pentagon, []graph.Edge{target})
		if err != nil {
			return false
		}
		before := ix.TotalSimilarity()
		for _, p := range candidateEdges(ix) {
			work.RemoveEdgeE(p)
			after, _ := CountAll(work, Pentagon, []graph.Edge{target})
			work.AddEdgeE(p)
			if gainOf(ix, p) != before-after {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
