package tpp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
)

// TestMemFootprintGrowsWithState pins the qualitative shape of the session
// footprint estimate: a fresh session counts its graph, the first run adds
// the motif index, and a bigger graph costs more than a smaller one. The absolute numbers are estimates; the budget layer only
// needs ordering and rough proportionality.
func TestMemFootprintGrowsWithState(t *testing.T) {
	ds := datasets.DBLPSim(400, 1)
	targets := datasets.SampleTargets(ds.Graph, 8, rand.New(rand.NewSource(1)))
	pr, err := New(ds.Graph, targets)
	if err != nil {
		t.Fatal(err)
	}
	fresh := pr.MemFootprint()
	if fresh < sessionBaseBytes {
		t.Fatalf("fresh footprint %d below the base overhead", fresh)
	}
	if g := pr.Problem().G.MemFootprint(); fresh < g {
		t.Fatalf("fresh footprint %d does not cover its graph (%d)", fresh, g)
	}

	if _, err := pr.Run(context.Background(), WithBudget(4)); err != nil {
		t.Fatal(err)
	}
	warm := pr.MemFootprint()
	if warm <= fresh {
		t.Fatalf("footprint did not grow after index build: fresh %d, after run %d", fresh, warm)
	}

	small := datasets.DBLPSim(100, 1)
	smallTargets := datasets.SampleTargets(small.Graph, 8, rand.New(rand.NewSource(1)))
	sp, err := New(small.Graph, smallTargets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Run(context.Background(), WithBudget(4)); err != nil {
		t.Fatal(err)
	}
	if got := sp.MemFootprint(); got >= warm {
		t.Fatalf("scale-100 session (%d bytes) not smaller than scale-400 (%d bytes)", got, warm)
	}
}
