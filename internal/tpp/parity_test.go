package tpp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/motif"
)

// TestPropertyEngineWorkerParity is the EdgeID refactor's safety net: on
// random graphs with random target sets, both engines (recount, indexed)
// and every worker count must make bit-identical protector
// selections. The runs go through one session per instance, so the test
// also covers index reuse (Reset) between runs with different engines.
func TestPropertyEngineWorkerParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(36, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		pattern := motif.AllPatterns[int(seed)%len(motif.AllPatterns)]

		session, err := New(g, targets,
			WithPattern(pattern),
			WithBudget(6),
			WithScope(ScopeTargetSubgraphs),
		)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var want *Result
		for _, engine := range []Engine{EngineRecount, EngineIndexed} {
			for _, workers := range []int{1, 4} {
				res, err := session.Run(ctx, WithEngine(engine), WithWorkers(workers))
				if err != nil {
					t.Fatalf("seed %d engine %v workers %d: %v", seed, engine, workers, err)
				}
				if want == nil {
					want = res
					continue
				}
				if !reflect.DeepEqual(res.Protectors, want.Protectors) {
					t.Fatalf("seed %d engine %v workers %d: protectors %v, want %v",
						seed, engine, workers, res.Protectors, want.Protectors)
				}
				if !reflect.DeepEqual(res.SimilarityTrace, want.SimilarityTrace) {
					t.Fatalf("seed %d engine %v workers %d: trace %v, want %v",
						seed, engine, workers, res.SimilarityTrace, want.SimilarityTrace)
				}
			}
		}

		// The free functions must agree with the session runs.
		p := session.Problem()
		free, err := SGBGreedy(p, 6, Options{Engine: EngineRecount, Scope: ScopeTargetSubgraphs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(free.Protectors, want.Protectors) {
			t.Fatalf("seed %d: free SGBGreedy diverged: %v vs %v", seed, free.Protectors, want.Protectors)
		}
	}
}

// TestPropertyCTWTEngineParity extends the parity property to the
// multi-local-budget algorithms: CT and WT selections must be identical
// under both engines for random instances and budget divisions.
func TestPropertyCTWTEngineParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := gen.BarabasiAlbertTriad(30, 3, 0.4, rng)
		targets := datasets.SampleTargets(g, 3, rng)
		for _, method := range []Method{MethodCT, MethodWT} {
			session, err := New(g, targets,
				WithMethod(method),
				WithBudget(5),
				WithDivision(DivisionTBD),
			)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, method, err)
			}
			var want *Result
			for _, engine := range []Engine{EngineRecount, EngineIndexed} {
				res, err := session.Run(ctx, WithEngine(engine))
				if err != nil {
					t.Fatalf("seed %d %s engine %v: %v", seed, method, engine, err)
				}
				if want == nil {
					want = res
					continue
				}
				if !reflect.DeepEqual(res.Protectors, want.Protectors) {
					t.Fatalf("seed %d %s engine %v: protectors %v, want %v",
						seed, method, engine, res.Protectors, want.Protectors)
				}
			}
		}
	}
}
