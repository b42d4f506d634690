package tpp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/linkpred"
)

// Katz-based TPP — the paper's first open problem ("more TPP mechanisms
// against kinds of other link predictions (e.g. Katz index based
// prediction)", Sec. VII).
//
// The Katz adversary scores a hidden pair (u, v) by the attenuated count
// of walks between them: Σ_l β^l · walks_l(u, v). Deleting edges can only
// remove walks, so the Katz-dissimilarity is *monotone* under deletion —
// but it is NOT submodular (two edges on the same walk overlap
// non-linearly), so the greedy below is a well-motivated heuristic without
// the paper's approximation guarantees. The implementation restricts
// candidates to edges on short walks between target endpoints (the Katz
// analogue of Lemma 5: edges off all such walks cannot change any score).

// KatzOptions configures the Katz defense.
type KatzOptions struct {
	// Beta is the walk attenuation factor (must be in (0, 1); smaller
	// values concentrate the score on short walks).
	Beta float64
	// MaxLen truncates the walk sum (≥ 2).
	MaxLen int
}

// DefaultKatzOptions are linkpred's adversary defaults.
func DefaultKatzOptions() KatzOptions {
	return KatzOptions{Beta: linkpred.DefaultKatzBeta, MaxLen: linkpred.DefaultKatzMaxLen}
}

// KatzResult records a Katz-defense run.
type KatzResult struct {
	// Protectors lists deleted links in selection order.
	Protectors []graph.Edge
	// ScoreTrace[i] is the total Katz score of all targets after i
	// deletions.
	ScoreTrace []float64
	Elapsed    time.Duration
}

// KatzGreedy deletes up to k protector links minimising the total
// truncated Katz score of the targets. The graph passed via the problem is
// handled exactly like the motif algorithms: targets are removed first,
// then protectors are chosen among the remaining edges.
func KatzGreedy(p *Problem, k int, opt KatzOptions) (*KatzResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("tpp: negative budget %d", k)
	}
	if opt.Beta <= 0 || opt.Beta >= 1 {
		return nil, fmt.Errorf("tpp: Katz beta %v outside (0,1)", opt.Beta)
	}
	if opt.MaxLen < 2 {
		return nil, fmt.Errorf("tpp: Katz max length %d < 2", opt.MaxLen)
	}
	g := p.G.Clone()
	start := time.Now()

	// One walk-vector scratch serves every Katz evaluation of the run: the
	// greedy scan below scores |candidates| · |targets| truncated walks per
	// step, so per-score allocation would dominate.
	sc := linkpred.NewKatzWalks(g.NumNodes())
	res := &KatzResult{ScoreTrace: []float64{katzTotal(g, p.Targets, opt, sc)}}
	for len(res.Protectors) < k {
		cands := katzCandidates(g, p.Targets, opt.MaxLen)
		var best graph.Edge
		bestScore := math.Inf(1)
		cur := res.ScoreTrace[len(res.ScoreTrace)-1]
		if cur == 0 {
			break
		}
		for _, cand := range cands {
			g.RemoveEdgeE(cand)
			s := katzTotal(g, p.Targets, opt, sc)
			g.AddEdgeE(cand)
			if s < bestScore {
				best, bestScore = cand, s
			}
		}
		if math.IsInf(bestScore, 1) || bestScore >= cur {
			break // no deletion lowers the adversary's score
		}
		g.RemoveEdgeE(best)
		res.Protectors = append(res.Protectors, best)
		res.ScoreTrace = append(res.ScoreTrace, bestScore)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// katzTotal sums the truncated Katz scores of all targets on g.
func katzTotal(g *graph.Graph, targets []graph.Edge, opt KatzOptions, sc *linkpred.KatzWalks) float64 {
	total := 0.0
	for _, t := range targets {
		total += sc.Score(g, t.U, t.V, opt.Beta, opt.MaxLen)
	}
	return total
}

// katzCandidates returns edges with both endpoints within ⌈MaxLen/2⌉ hops
// of some target endpoint — a superset of all edges on length-≤MaxLen
// walks between target pairs, hence of all edges whose deletion can change
// any target's truncated Katz score.
func katzCandidates(g *graph.Graph, targets []graph.Edge, maxLen int) []graph.Edge {
	radius := (maxLen + 1) / 2
	near := make([]bool, g.NumNodes())
	var frontier []graph.NodeID
	for _, t := range targets {
		frontier = append(frontier, t.U, t.V)
	}
	for _, s := range frontier {
		near[s] = true
	}
	for hop := 0; hop < radius; hop++ {
		var nextFrontier []graph.NodeID
		for _, u := range frontier {
			for _, w := range g.NeighborsView(u) {
				if !near[w] {
					near[w] = true
					nextFrontier = append(nextFrontier, w)
				}
			}
		}
		frontier = nextFrontier
	}
	// EachEdge sweeps in canonical order, so out needs no sort.
	var out []graph.Edge
	g.EachEdge(func(e graph.Edge) bool {
		if near[e.U] && near[e.V] {
			out = append(out, e)
		}
		return true
	})
	return out
}
