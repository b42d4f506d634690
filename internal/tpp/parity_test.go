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

// recountScopes are the free functions' two candidate scopes. The free
// functions recount and a session selects through the motif index only, so
// these free-function runs are its parity oracle.
var recountScopes = []Scope{ScopeAllEdges, ScopeTargetSubgraphs}

// TestPropertyEngineWorkerParity is the EdgeID refactor's safety net: on
// random graphs with random target sets, a session at every worker count
// must make the same protector selections, bit for bit, as the recount
// free function SGBGreedy in both scopes. The session runs reuse one index
// (Reset) between runs.
func TestPropertyEngineWorkerParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(36, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		pattern := motif.AllPatterns[int(seed)%len(motif.AllPatterns)]

		p, err := NewProblem(g, pattern, targets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var wants []*Result
		for _, scope := range recountScopes {
			want, err := SGBGreedy(p, 6, scope)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, scope, err)
			}
			wants = append(wants, want)
		}

		session, err := New(g, targets, WithPattern(pattern), WithBudget(6))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := session.Run(ctx, WithWorkers(workers))
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for i, want := range wants {
				if !reflect.DeepEqual(res.Protectors, want.Protectors) {
					t.Fatalf("seed %d workers %d: protectors %v, recount/%v free function %v",
						seed, workers, res.Protectors, recountScopes[i], want.Protectors)
				}
				if !reflect.DeepEqual(res.SimilarityTrace, want.SimilarityTrace) {
					t.Fatalf("seed %d workers %d: trace %v, recount/%v free function %v",
						seed, workers, res.SimilarityTrace, recountScopes[i], want.SimilarityTrace)
				}
			}
		}
	}
}

// TestPropertyCTWTEngineParity extends the parity property to the
// multi-local-budget algorithms: a session's CT and WT selections must be
// identical to the recount free functions CTGreedy and WTGreedy in both
// scopes for random instances under the TBD division.
func TestPropertyCTWTEngineParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := gen.BarabasiAlbertTriad(30, 3, 0.4, rng)
		targets := datasets.SampleTargets(g, 3, rng)
		p, err := NewProblem(g, motif.Triangle, targets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		budgets, err := TBDForProblem(p, 5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, method := range []Method{MethodCT, MethodWT} {
			session, err := New(g, targets,
				WithMethod(method),
				WithBudget(5),
				WithDivision(DivisionTBD),
			)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, method, err)
			}
			res, err := session.Run(ctx)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, method, err)
			}
			for _, scope := range recountScopes {
				var want *Result
				if method == MethodCT {
					want, err = CTGreedy(p, budgets, scope)
				} else {
					want, err = WTGreedy(p, budgets, scope)
				}
				if err != nil {
					t.Fatalf("seed %d %s recount/%v: %v", seed, method, scope, err)
				}
				if !reflect.DeepEqual(res.Protectors, want.Protectors) {
					t.Fatalf("seed %d %s: protectors %v, recount/%v free function %v",
						seed, method, res.Protectors, scope, want.Protectors)
				}
			}
		}
	}
}
