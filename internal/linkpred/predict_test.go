package linkpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// PrecisionAtK returns the fraction of the adversary's top-k predictions
// that are true hidden links — the standard link-prediction precision
// metric, here measuring re-identification risk of a release. Only tests
// measure it (protect_test.go, through the export-for-test idiom).
func PrecisionAtK(g *graph.Graph, kind IndexKind, hidden []graph.Edge, k int) float64 {
	if k <= 0 {
		return 0
	}
	isHidden := make(map[graph.Edge]bool, len(hidden))
	for _, e := range hidden {
		isHidden[e] = true
	}
	top := TopPredictions(g, kind, k)
	hits := 0
	for _, p := range top {
		if isHidden[p.Pair] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func TestCandidatePairs(t *testing.T) {
	// Path 0-1-2: the only 2-hop non-adjacent pair is (0,2).
	g := gen.Path(3)
	got := CandidatePairs(g)
	if len(got) != 1 || got[0] != graph.NewEdge(0, 2) {
		t.Fatalf("candidates = %v, want [0-2]", got)
	}
	// Complete graph: no candidates at all.
	if got := CandidatePairs(gen.Complete(5)); len(got) != 0 {
		t.Fatalf("K5 candidates = %v, want none", got)
	}
}

func TestTopPredictionsOrdering(t *testing.T) {
	// (0,1) has two common neighbours; (0,4) has one: CN must rank them in
	// that order.
	g := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 5}, {5, 4}} {
		g.AddEdge(e[0], e[1])
	}
	preds := TopPredictions(g, CommonNeighbors, 0)
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	if preds[0].Pair != graph.NewEdge(0, 1) || preds[0].Score != 2 {
		t.Fatalf("top prediction = %+v, want 0-1 with score 2", preds[0])
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Score > preds[i-1].Score {
			t.Fatalf("predictions out of order at %d: %+v", i, preds)
		}
	}
	// Limit is honoured.
	if got := TopPredictions(g, CommonNeighbors, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestPrecisionAtK(t *testing.T) {
	// Hidden link (0,1) with two common neighbours is the adversary's top
	// guess: precision@1 = 1.
	g := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 1}, {0, 3}, {3, 1}} {
		g.AddEdge(e[0], e[1])
	}
	hidden := []graph.Edge{graph.NewEdge(0, 1)}
	if p := PrecisionAtK(g, CommonNeighbors, hidden, 1); p != 1 {
		t.Fatalf("precision@1 = %v, want 1", p)
	}
	if p := PrecisionAtK(g, CommonNeighbors, hidden, 0); p != 0 {
		t.Fatalf("precision@0 = %v, want 0", p)
	}
}

// Property: every positively scored prediction under any triangle index
// is a CandidatePairs member, and scores on candidates are non-negative.
func TestPropertyPredictionsWithinSupport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(30, 3, 0.5, rng)
		support := make(map[graph.Edge]bool)
		for _, e := range CandidatePairs(g) {
			support[e] = true
		}
		for _, kind := range TriangleIndices {
			for _, pr := range TopPredictions(g, kind, 0) {
				if pr.Score <= 0 || !support[pr.Pair] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
