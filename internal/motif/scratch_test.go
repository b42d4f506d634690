package motif

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
)

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops a random share of the items put back.
var raceEnabled bool

// indexDiff compares two indexes field for field — everything but the
// apply-path scratch capacity and the build timing — and describes the
// first difference, or returns "".
func indexDiff(a, b *Index) string {
	switch {
	case a.pattern != b.pattern:
		return "pattern"
	case !slices.Equal(a.targets, b.targets):
		return "targets"
	case !slices.Equal(a.AllTouchedEdges(), b.AllTouchedEdges()):
		return "interned universe"
	case !slices.Equal(a.inst, b.inst):
		return "instance table"
	case !slices.Equal(a.instStart, b.instStart) || !slices.Equal(a.instIDs, b.instIDs):
		return "CSR incidences"
	case !slices.Equal(a.gain, b.gain):
		return "gains"
	case !slices.Equal(a.deleted, b.deleted) || a.nDeleted != b.nDeleted:
		return "deletion bitset"
	case !slices.Equal(a.perTarget, b.perTarget) || a.alive != b.alive:
		return "similarities"
	case a.heapDirty != b.heapDirty || !slices.Equal(a.heap, b.heap) || !slices.Equal(a.heapPos, b.heapPos):
		return "gain heap"
	case a.stats.Workers != b.stats.Workers || a.stats.Instances != b.stats.Instances:
		return "build stats"
	}
	return ""
}

// TestIndexBuildScratchReuse pins that build scratch carries nothing from
// one use to the next. One scratch is run through full builds and
// ApplyMutations over random graphs of growing and shrinking size, every
// pattern and worker counts 1 and 3 (so arenas, tables and the worker list
// all grow and shrink), interleaved with builds through the pool; each
// resulting index must equal, field for field, its twin built and mutated
// with fresh scratch every time.
func TestIndexBuildScratchReuse(t *testing.T) {
	shared := new(buildScratch)
	rng := rand.New(rand.NewSource(23))
	sizes := []int{90, 30, 140, 50, 120}
	for round, n := range sizes {
		for _, pattern := range AllPatterns {
			nodes := n
			if pattern == Pentagon {
				nodes = n * 2 / 3 // the heaviest kernel
			}
			workers := 1 + 2*(round%2)
			g := gen.BarabasiAlbertTriad(nodes, 3, 0.4, rng)
			targets := datasets.SampleTargets(g, 3+rng.Intn(10), rng)
			phase1 := g.Clone()
			phase1.RemoveEdges(targets)
			name := fmt.Sprintf("round %d %v n=%d workers=%d", round, pattern, nodes, workers)

			reused, err := newIndexScratch(phase1, pattern, targets, workers, shared)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := newIndexScratch(phase1, pattern, targets, workers, new(buildScratch))
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := NewIndexWorkers(phase1, pattern, targets, workers)
			if err != nil {
				t.Fatal(err)
			}
			if d := indexDiff(reused, fresh); d != "" {
				t.Fatalf("%s: build with reused scratch differs in %s", name, d)
			}
			arena := 0
			for _, w := range shared.workers {
				arena += len(w.arena)
			}
			if arena != reused.NumInstances() {
				t.Fatalf("%s: arenas hold %d instances after a build of %d", name, arena, reused.NumInstances())
			}
			if d := indexDiff(pooled, fresh); d != "" {
				t.Fatalf("%s: build through the pool differs in %s", name, d)
			}

			// Mutate the twins in lockstep: edge churn (including
			// removal-only batches), target drops and re-adds, and
			// protector deletions the next apply discards.
			churn := gen.NewChurn(phase1, targets, 0.5, rng)
			var dropped []graph.Edge
			for step := 0; step < 8; step++ {
				var m Mutation
				switch {
				case step%4 == 1 && len(reused.Targets()) > 1:
					cur := reused.Targets()
					m.DropTargets = []graph.Edge{cur[rng.Intn(len(cur))]}
					dropped = append(dropped, m.DropTargets[0])
				case step%4 == 3 && len(dropped) > 0:
					m.AddTargets = dropped[len(dropped)-1:]
					dropped = dropped[:len(dropped)-1]
				default:
					m.Inserted, m.Removed = churn.Next(1 + rng.Intn(6))
				}
				if _, err := reused.applyMutation(churn.Graph(), m, shared); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if _, err := fresh.applyMutation(churn.Graph(), m, new(buildScratch)); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if d := indexDiff(reused, fresh); d != "" {
					t.Fatalf("%s step %d: apply with reused scratch differs in %s", name, step, d)
				}
				for k := 0; k < step%3; k++ {
					id, _, ok := reused.ArgmaxGainID()
					if _, _, fok := fresh.ArgmaxGainID(); ok != fok {
						t.Fatalf("%s step %d: argmax availability differs", name, step)
					}
					if ok {
						reused.DeleteEdgeID(id)
						fresh.DeleteEdgeID(id)
					}
				}
			}
		}
	}
}

// TestIndexBuildAllocsIndependentOfTargets pins what the build scratch
// buys: with warm scratch a full build allocates only the arrays the index
// keeps, a fixed count whatever the number of targets — no per-target
// instance buffer.
func TestIndexBuildAllocsIndependentOfTargets(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pool's items
	rng := rand.New(rand.NewSource(13))
	g := datasets.DBLPSim(2000, 13).Graph
	targets := datasets.SampleTargets(g, 512, rng)
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)

	held := new(buildScratch)
	allocs := func(ts []graph.Edge, build func([]graph.Edge)) float64 {
		build(targets) // warm the scratch to the larger build's high-water mark
		return testing.AllocsPerRun(10, func() { build(ts) })
	}
	check := func(what string, build func([]graph.Edge)) {
		small, large := allocs(targets[:64], build), allocs(targets, build)
		if small != large {
			t.Errorf("%s: %v allocations with 64 Pentagon targets, %v with 512; want equal", what, small, large)
		}
	}
	check("held scratch", func(ts []graph.Edge) {
		if _, err := newIndexScratch(phase1, Pentagon, ts, 1, held); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		t.Log("race detector on: sync.Pool drops items at random; pool check skipped")
		return
	}
	check("pool", func(ts []graph.Edge) {
		if _, err := NewIndexWorkers(phase1, Pentagon, ts, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIndexBuildPoolConcurrent runs builds and applies of different sizes
// from several goroutines at once, so the pool hands scratch back and forth
// between them; every index must equal its twin made alone with fresh
// scratch. Run it under -race.
func TestIndexBuildPoolConcurrent(t *testing.T) {
	type job struct {
		g       *graph.Graph
		pattern Pattern
		targets []graph.Edge
		ins     []graph.Edge // inserted into a copy of g for the apply
		want    *Index       // built and applied with fresh scratch
	}
	rng := rand.New(rand.NewSource(31))
	var jobs []job
	for i, n := range []int{40, 120, 70, 100} {
		pattern := AllPatterns[i%len(AllPatterns)]
		g := gen.BarabasiAlbertTriad(n, 3, 0.4, rng)
		targets := datasets.SampleTargets(g, 4+i, rng)
		phase1 := g.Clone()
		phase1.RemoveEdges(targets)
		churn := gen.NewChurn(phase1.Clone(), targets, 1, rng)
		ins, _ := churn.Next(4)
		want, err := newIndexScratch(phase1, pattern, targets, 1, new(buildScratch))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.applyMutation(churn.Graph(), Mutation{Inserted: ins}, new(buildScratch)); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{g: phase1, pattern: pattern, targets: targets, ins: ins, want: want})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				j := jobs[(w+r)%len(jobs)]
				ix, err := NewIndexWorkers(j.g, j.pattern, j.targets, 1+r%2)
				if err != nil {
					t.Error(err)
					return
				}
				mutated := j.g.Clone()
				for _, e := range j.ins {
					mutated.AddEdgeE(e)
				}
				if _, err := ix.ApplyMutation(mutated, Mutation{Inserted: j.ins}); err != nil {
					t.Error(err)
					return
				}
				ix.stats.Workers = j.want.stats.Workers
				if d := indexDiff(ix, j.want); d != "" {
					t.Errorf("worker %d round %d: index differs in %s", w, r, d)
				}
			}
		}()
	}
	wg.Wait()
}
