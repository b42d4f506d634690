package linkpred_test

// These tests run the protection end to end (tpp imports linkpred for its
// Katz kernel), so they live in the external test package.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// protectFully runs a Triangle session at the critical budget k* and
// returns the released graph with the run's result.
func protectFully(t *testing.T, g *graph.Graph, targets []graph.Edge) (*graph.Graph, *tpp.Result) {
	t.Helper()
	pr, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return pr.Release(res), res
}

// allZero reports whether every score is exactly zero — the paper's "full
// protection defends all triangle-based predictions" condition.
func allZero(scores []float64) bool {
	for _, s := range scores {
		if s != 0 {
			return false
		}
	}
	return true
}

// Paper Sec. VI-D headline claim: a fully protected graph (total motif
// similarity zero under the Triangle pattern) drives every triangle-based
// index to score every target exactly 0 — the adversary's prediction
// probability vanishes.
func TestFullProtectionDefeatsTriangleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.BarabasiAlbertTriad(150, 4, 0.5, rng)
	targets := datasets.SampleTargets(g, 8, rng)
	released, res := protectFully(t, g, targets)
	if !res.FullProtection() {
		t.Fatal("critical-budget run did not reach full protection")
	}
	for _, kind := range linkpred.TriangleIndices {
		scores := linkpred.TargetScores(released, kind, targets)
		if !allZero(scores) {
			t.Fatalf("%v scores nonzero after full protection: %v", kind, scores)
		}
	}
}

// TPP's end-to-end guarantee through the adversary's actual tooling:
// before protection the hidden targets appear in the top predictions;
// after full protection their precision is exactly zero at every k.
func TestPrecisionCollapsesUnderTPP(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := gen.BarabasiAlbertTriad(120, 4, 0.6, rng)
	// Choose high-similarity edges as targets so the pre-protection attack
	// has real signal.
	var targets []graph.Edge
	for _, e := range g.Edges() {
		if g.CommonNeighborCount(e.U, e.V) >= 3 {
			targets = append(targets, e)
			if len(targets) == 4 {
				break
			}
		}
	}
	if len(targets) < 2 {
		t.Skip("graph too sparse for the scenario")
	}
	naive := g.Clone()
	naive.RemoveEdges(targets)
	before := linkpred.PrecisionAtK(naive, linkpred.CommonNeighbors, targets, 300)
	if before == 0 {
		t.Fatal("attack premise failed: no signal before protection")
	}
	released, _ := protectFully(t, g, targets)
	for _, k := range []int{1, 10, 100} {
		if after := linkpred.PrecisionAtK(released, linkpred.CommonNeighbors, targets, k); after != 0 {
			t.Fatalf("precision@%d = %v after full protection, want 0", k, after)
		}
	}
}
