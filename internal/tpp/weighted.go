package tpp

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Weighted TPP extends the paper's model with per-target importance
// weights (Sec. V motivates heterogeneous target importance but only uses
// it to divide budgets; here the objective itself is weighted):
//
//	f_w(P, T) = C − Σ_t w_t · s(P, t)
//
// With non-negative weights, f_w remains monotone and submodular — each
// instance contributes a fixed non-negative weight and deletion can only
// remove contributions — so weighted SGB greedy keeps the (1 − 1/e)
// guarantee. With all weights 1 it coincides exactly with SGBGreedy (a
// property test enforces this).

// WeightedResult extends Result with the weighted objective trace.
type WeightedResult struct {
	Result
	// WeightedTrace[i] is Σ_t w_t·s(P_i, t) after i deletions.
	WeightedTrace []float64
}

// WeightedDissimilarity returns the total weighted gain achieved.
func (r *WeightedResult) WeightedDissimilarity() float64 {
	return r.WeightedTrace[0] - r.WeightedTrace[len(r.WeightedTrace)-1]
}

// WeightedSGBGreedy maximises the weighted dissimilarity under a single
// global budget k using CELF lazy greedy over the inverted index. weights
// must be non-negative, one per target (aligned with p.Targets).
func WeightedSGBGreedy(p *Problem, k int, weights []float64) (*WeightedResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeBudget, k)
	}
	if len(weights) != len(p.Targets) {
		return nil, fmt.Errorf("tpp: got %d weights for %d targets", len(weights), len(p.Targets))
	}
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("tpp: negative weight %v for target %v (submodularity requires w ≥ 0)", w, p.Targets[i])
		}
	}
	ix, err := motif.NewIndex(p.Phase1(), p.Pattern, p.Targets)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	weightedSim := func() float64 {
		s := 0.0
		for ti, w := range weights {
			s += w * float64(ix.Similarity(ti))
		}
		return s
	}
	// One gain-vector buffer serves every evaluation: the CELF loop below
	// re-scores candidates per pop, so a per-call allocation would be paid
	// O(candidates) times per selection.
	gvBuf := make([]int, len(p.Targets))
	gainOf := func(id graph.EdgeID) float64 {
		per, _ := ix.GainVectorIDInto(id, gvBuf)
		if per == nil {
			return 0
		}
		g := 0.0
		for ti, cnt := range per {
			g += weights[ti] * float64(cnt)
		}
		return g
	}

	res := &WeightedResult{
		Result:        Result{Method: "Weighted-SGB-Greedy", SimilarityTrace: []int{ix.TotalSimilarity()}},
		WeightedTrace: []float64{weightedSim()},
	}

	h := &celfHeap{}
	for _, id := range ix.AppendCandidateIDs(nil) {
		h.items = append(h.items, celfItem{id: id, gain: gainOf(id), round: 0})
	}
	heap.Init(h)
	round := 0
	for len(res.Protectors) < k && h.Len() > 0 {
		top := h.items[0]
		if top.round != round {
			h.items[0].gain = gainOf(top.id)
			h.items[0].round = round
			heap.Fix(h, 0)
			continue
		}
		heap.Pop(h)
		if top.gain == 0 {
			break
		}
		ix.DeleteEdgeID(top.id)
		res.record(ix.Interner().Edge(top.id), ix.TotalSimilarity(), time.Since(start))
		res.WeightedTrace = append(res.WeightedTrace, weightedSim())
		round++
	}
	res.PerTargetFinal = ix.Similarities()
	res.Elapsed = time.Since(start)
	return res, nil
}

// celfItem / celfHeap: float-valued CELF heap keyed by EdgeID (the
// unweighted greedy reads its argmax from the motif index's own heap of
// exact integer gains). Ascending id order is canonical edge order, so
// tie-breaks match the unweighted greedy exactly.
type celfItem struct {
	id    graph.EdgeID
	gain  float64
	round int
}

type celfHeap struct{ items []celfItem }

func (h *celfHeap) Len() int { return len(h.items) }
func (h *celfHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.id < b.id
}
func (h *celfHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *celfHeap) Push(x interface{}) { h.items = append(h.items, x.(celfItem)) }
func (h *celfHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// NodeTargets returns every link incident to node v — the target set for
// *target node* privacy (paper future work #2): hiding a node's entire
// relationship neighbourhood, e.g. an undercover account. Protecting these
// targets makes every tie of v unpredictable by the chosen motif.
func NodeTargets(g *graph.Graph, v graph.NodeID) []graph.Edge {
	nbrs := g.NeighborsView(v) // consumed before any mutation can occur
	out := make([]graph.Edge, 0, len(nbrs))
	for _, w := range nbrs {
		out = append(out, graph.NewEdge(v, w))
	}
	return out
}
