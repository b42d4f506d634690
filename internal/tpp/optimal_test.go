package tpp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Brute-force optima for instances small enough to enumerate: the oracles
// the approximation-bound tests compare SGB-, CT- and WT-Greedy against.

// OptimalSGB exhaustively finds a protector set of size ≤ k maximising the
// dissimilarity, by enumerating subsets of the Lemma 5 candidate edges.
// Exponential — only for small instances in tests verifying the greedy's
// (1 − 1/e) bound. Ties are resolved toward the lexicographically smallest
// protector set.
func OptimalSGB(p *Problem, k int) (best []graph.Edge, bestBroken int, err error) {
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		return nil, 0, err
	}
	cands := ix.Interner().Edges(ix.AppendCandidateIDs(nil))
	insts := motif.Instances(p.G, p.Pattern, p.Targets)
	if len(cands) > 24 {
		return nil, 0, fmt.Errorf("tpp: OptimalSGB: %d candidate edges is too many for exhaustive search", len(cands))
	}
	if k > len(cands) {
		k = len(cands)
	}

	broken := func(set map[graph.Edge]bool) int {
		n := 0
		for _, in := range insts {
			for _, e := range in.Edges {
				if set[e] {
					n++
					break
				}
			}
		}
		return n
	}

	cur := make(map[graph.Edge]bool)
	var rec func(start, remaining int)
	var chosen []graph.Edge
	rec = func(start, remaining int) {
		if b := broken(cur); b > bestBroken {
			bestBroken = b
			best = append(best[:0], chosen...)
		}
		if remaining == 0 {
			return
		}
		for i := start; i < len(cands); i++ {
			cur[cands[i]] = true
			chosen = append(chosen, cands[i])
			rec(i+1, remaining-1)
			chosen = chosen[:len(chosen)-1]
			delete(cur, cands[i])
		}
	}
	rec(0, k)
	out := append([]graph.Edge(nil), best...)
	graph.SortEdges(out)
	return out, bestBroken, nil
}

// OptimalMLBT exhaustively solves the Multi-Local-Budget problem: assign
// each candidate protector to at most one target's sub-budget (or leave it
// undeleted) so that Σ budgets are respected and the number of broken
// instances is maximal. This is the partition-matroid optimum that
// Theorems 4 and 5 compare CT/WT-Greedy against. Exponential in the
// candidate count — tests only.
func OptimalMLBT(p *Problem, budgets []int) (bestBroken int, err error) {
	if err := validateBudgets(p, budgets); err != nil {
		return 0, err
	}
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		return 0, err
	}
	cands := ix.Interner().Edges(ix.AppendCandidateIDs(nil))
	if len(cands) > 10 {
		return 0, fmt.Errorf("tpp: OptimalMLBT: %d candidate edges is too many for exhaustive search", len(cands))
	}
	insts := motif.Instances(p.G, p.Pattern, p.Targets)

	deleted := make(map[graph.Edge]bool)
	used := make([]int, len(budgets))
	broken := func() int {
		n := 0
		for _, in := range insts {
			for _, e := range in.Edges {
				if deleted[e] {
					n++
					break
				}
			}
		}
		return n
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(cands) {
			if b := broken(); b > bestBroken {
				bestBroken = b
			}
			return
		}
		rec(i + 1) // leave cands[i] undeleted
		for ti := range budgets {
			if used[ti] < budgets[ti] {
				used[ti]++
				deleted[cands[i]] = true
				rec(i + 1)
				delete(deleted, cands[i])
				used[ti]--
			}
		}
	}
	rec(0)
	return bestBroken, nil
}
