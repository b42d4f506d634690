package tpp

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// targetGain is the paper's Δ_p^t = [within-target gain] + [cross-target
// gain]/C. With C chosen large (C ≥ s(∅,T)) the comparison is lexicographic:
// within-target gain first, total gain as tie-break. This reproduces the
// paper's worked comparison (Δ=2+2 beats Δ=1+4).
type targetGain struct {
	within, total int
}

func (a targetGain) better(b targetGain) bool {
	if a.within != b.within {
		return a.within > b.within
	}
	return a.total > b.total
}

func (a targetGain) zero() bool { return a.within == 0 && a.total == 0 }

func validateBudgets(p *Problem, budgets []int) error {
	if len(budgets) != len(p.Targets) {
		return fmt.Errorf("tpp: got %d sub budgets for %d targets", len(budgets), len(p.Targets))
	}
	for i, b := range budgets {
		if b < 0 {
			return fmt.Errorf("%w: sub budget %d for target %v", ErrNegativeBudget, b, p.Targets[i])
		}
	}
	return nil
}

// budgetSum totals the sub budgets, saturating at maxBudget.
func budgetSum(budgets []int) int {
	sum := 0
	for _, b := range budgets {
		if b > maxBudget-sum {
			return maxBudget
		}
		sum += b
	}
	return sum
}

// CTGreedy solves the Multi-Local-Budget TPP problem with cross-target
// protector picking (paper Algorithm 2): at every step consider every
// (target, protector) pair where the target still has budget, and commit
// the pair with the largest Δ_p^t, charging that target's sub budget.
// This is greedy submodular maximisation over a partition matroid and
// achieves a 1/2-approximation (Theorem 4). Like SGBGreedy it recounts
// over the given scope.
func CTGreedy(p *Problem, budgets []int, scope Scope) (*Result, error) {
	return ctGreedy(p, budgets, scope, runEnv{})
}

func ctGreedy(p *Problem, budgets []int, scope Scope, env runEnv) (*Result, error) {
	if err := validateBudgets(p, budgets); err != nil {
		return nil, err
	}
	ev := env.evaluator(p, scope)
	start := time.Now()
	res := newResult(scope.VariantName("CT-Greedy"), ev.totalSimilarity(), env.steps(budgetSum(budgets), ev.interner().NumEdges()))
	used := make([]int, len(budgets))
	var cands []graph.EdgeID
	gvBuf := make([]int, len(p.Targets))
	for {
		if err := env.err(); err != nil {
			return nil, err
		}
		remaining := false
		for i := range budgets {
			if used[i] < budgets[i] {
				remaining = true
				break
			}
		}
		if !remaining {
			break
		}
		bestEdge := graph.NoEdge
		bestTarget := -1
		var best targetGain
		cands = ev.candidates(cands[:0])
		for i, cand := range cands {
			if i%checkEvery == checkEvery-1 {
				if err := env.err(); err != nil {
					return nil, err
				}
			}
			delta, tot := ev.gainVector(cand, gvBuf)
			for ti := range p.Targets {
				if used[ti] >= budgets[ti] {
					continue
				}
				w := 0
				if delta != nil {
					w = delta[ti]
				}
				g := targetGain{within: w, total: tot}
				if bestTarget < 0 || g.better(best) {
					bestEdge, bestTarget, best = cand, ti, g
				}
			}
		}
		if bestTarget < 0 || best.zero() {
			break // Algorithm 2: Δ_{p*}^{t*} == 0 ⇒ stop
		}
		used[bestTarget]++
		ev.delete(bestEdge)
		res.record(ev.interner().Edge(bestEdge), ev.totalSimilarity(), time.Since(start))
		env.onStep(res)
	}
	res.PerTargetFinal = append([]int(nil), ev.similarities()...)
	res.Elapsed = time.Since(start)
	return res, nil
}

// WTGreedy solves the Multi-Local-Budget TPP problem with within-target
// protector picking (paper Algorithm 3): satisfy targets one at a time in
// order, spending each target's sub budget on the protectors with the
// largest Δ_p^t for that target. Achieves a 1 − e^{−(1−1/e)} ≈ 0.46
// approximation (Theorem 5). Like SGBGreedy it recounts over the given
// scope.
func WTGreedy(p *Problem, budgets []int, scope Scope) (*Result, error) {
	return wtGreedy(p, budgets, scope, runEnv{})
}

func wtGreedy(p *Problem, budgets []int, scope Scope, env runEnv) (*Result, error) {
	if err := validateBudgets(p, budgets); err != nil {
		return nil, err
	}
	ev := env.evaluator(p, scope)
	start := time.Now()
	res := newResult(scope.VariantName("WT-Greedy"), ev.totalSimilarity(), env.steps(budgetSum(budgets), ev.interner().NumEdges()))
	finish := func() (*Result, error) {
		res.PerTargetFinal = append([]int(nil), ev.similarities()...)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	var cands []graph.EdgeID
	gvBuf := make([]int, len(p.Targets))
	for ti := range p.Targets {
		for b := 0; b < budgets[ti]; b++ {
			if err := env.err(); err != nil {
				return nil, err
			}
			bestEdge := graph.NoEdge
			var best targetGain
			found := false
			cands = ev.candidates(cands[:0])
			for i, cand := range cands {
				if i%checkEvery == checkEvery-1 {
					if err := env.err(); err != nil {
						return nil, err
					}
				}
				delta, tot := ev.gainVector(cand, gvBuf)
				w := 0
				if delta != nil {
					w = delta[ti]
				}
				g := targetGain{within: w, total: tot}
				if !found || g.better(best) {
					bestEdge, best, found = cand, g, true
				}
			}
			if !found || best.zero() {
				// Δ_p^t == 0 for every remaining pair means no deletion
				// breaks any target subgraph anywhere (the cross part is
				// included in Δ), so stopping globally is exact.
				return finish()
			}
			ev.delete(bestEdge)
			res.record(ev.interner().Edge(bestEdge), ev.totalSimilarity(), time.Since(start))
			env.onStep(res)
		}
	}
	return finish()
}
