package tpp

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// SGBGreedy solves the Single-Global-Budget TPP problem (paper Def. 1,
// Algorithm 1): iteratively delete the protector with the largest marginal
// dissimilarity gain until the budget k is spent or no deletion helps.
// Because f(P, T) is monotone and submodular (Lemmas 1–2), the output is a
// (1 − 1/e)-approximation of the optimal protector set (Theorem 3).
func SGBGreedy(p *Problem, k int, opt Options) (*Result, error) {
	return sgbGreedy(p, k, opt, runEnv{})
}

func sgbGreedy(p *Problem, k int, opt Options, env runEnv) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeBudget, k)
	}
	ev, err := env.evaluator(p, opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := newResult(opt.VariantName("SGB-Greedy"), ev.totalSimilarity(), env.steps(k, ev.interner().NumEdges()))
	am, hasHeap := ev.(argmaxEvaluator)
	var cands []graph.EdgeID
	for len(res.Protectors) < k {
		if err := env.err(); err != nil {
			return nil, err
		}
		best := graph.NoEdge
		bestGain := 0
		if hasHeap {
			// Indexed engine: the gain heap answers the argmax in O(1).
			var ok bool
			if best, bestGain, ok = am.argmax(); !ok {
				break
			}
		} else {
			cands = ev.candidates(cands[:0])
			for i, cand := range cands {
				if i%checkEvery == checkEvery-1 {
					if err := env.err(); err != nil {
						return nil, err
					}
				}
				if g := ev.gain(cand); g > bestGain {
					best, bestGain = cand, g
				}
			}
		}
		if bestGain == 0 {
			break // Algorithm 1: Δ_{p*} == 0 ⇒ stop
		}
		ev.delete(best)
		res.record(ev.interner().Edge(best), ev.totalSimilarity(), time.Since(start))
		env.onStep(res)
	}
	res.PerTargetFinal = append([]int(nil), ev.similarities()...)
	res.Elapsed = time.Since(start)
	return res, nil
}

// CriticalBudget computes k* — the smallest budget achieving full
// protection (s(P, T) = 0) — by running SGB-Greedy with an unbounded
// budget. The greedy stops exactly when every remaining gain is zero,
// which for this objective coincides with total similarity zero.
func CriticalBudget(p *Problem, opt Options) (int, *Result, error) {
	res, err := sgbGreedy(p, maxBudget, opt, runEnv{})
	if err != nil {
		return 0, nil, err
	}
	return len(res.Protectors), res, nil
}
