package tpp

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Budget division strategies for the Multi-Local-Budget problem
// (paper Sec. V-A). Both allocate a total budget k across targets by a
// largest-remainder apportionment over non-negative weights, so Σ k_t ≤ k
// always holds and the allocation is deterministic.

// TBD is the target-subgraph-based budget division: k_t proportional to
// |W_t| (the target's initial similarity), with the paper's constraint
// k_t ≤ |W_t|. wCounts[i] must be |W_{t_i}| on the phase-1 graph.
func TBD(k int, wCounts []int) ([]int, error) {
	for i, w := range wCounts {
		if w < 0 {
			return nil, fmt.Errorf("tpp: negative subgraph count %d for target %d", w, i)
		}
	}
	caps := append([]int(nil), wCounts...)
	return apportion(k, toFloats(wCounts), caps), nil
}

// TBDForProblem computes |W_t| on the phase-1 graph and applies TBD.
func TBDForProblem(p *Problem, k int) ([]int, error) {
	_, per := motif.CountAll(p.G, p.Pattern, p.Targets)
	return TBD(k, per)
}

// DBD is the degree-product-based budget division: k_t proportional to
// d_u · d_v, the degree product of the target's endpoints in the original
// graph. DBD needs no knowledge of motif structure (that is its point: it
// is cheaper but blinder than TBD).
func DBD(k int, g *graph.Graph, targets []graph.Edge) ([]int, error) {
	weights := make([]float64, len(targets))
	for i, t := range targets {
		if !g.HasEdgeE(t) {
			return nil, fmt.Errorf("tpp: DBD target %v is not an edge of the graph", t)
		}
		weights[i] = float64(g.Degree(t.U)) * float64(g.Degree(t.V))
	}
	return apportion(k, weights, nil), nil
}

// DBDForProblem applies DBD with the problem's original degrees, read off
// the phase-1 graph: a node's original degree is its phase-1 degree plus
// the number of targets incident to it.
func DBDForProblem(p *Problem, k int) ([]int, error) {
	targetDeg := make(map[graph.NodeID]int, 2*len(p.Targets))
	for _, t := range p.Targets {
		targetDeg[t.U]++
		targetDeg[t.V]++
	}
	degree := func(x graph.NodeID) float64 { return float64(p.G.Degree(x) + targetDeg[x]) }
	weights := make([]float64, len(p.Targets))
	for i, t := range p.Targets {
		weights[i] = degree(t.U) * degree(t.V)
	}
	return apportion(k, weights, nil), nil
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// apportion distributes k integer units proportionally to weights using the
// largest-remainder method. caps, when non-nil, upper-bounds each share;
// units that cannot be placed because of caps are left unallocated
// (Σ result ≤ k).
func apportion(k int, weights []float64, caps []int) []int {
	n := len(weights)
	out := make([]int, n)
	if k <= 0 || n == 0 {
		return out
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return out
	}
	capOf := func(i int) int {
		if caps == nil {
			return k
		}
		return caps[i]
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, n)
	allocated := 0
	for i, w := range weights {
		quota := float64(k) * w / total
		share := int(quota)
		if c := capOf(i); share > c {
			share = c
		}
		out[i] = share
		allocated += share
		rems = append(rems, rem{idx: i, frac: quota - float64(out[i])})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	// Hand out the leftover units by descending fractional remainder,
	// cycling while capacity remains.
	for allocated < k {
		progressed := false
		for _, r := range rems {
			if allocated >= k {
				break
			}
			if out[r.idx] < capOf(r.idx) {
				out[r.idx]++
				allocated++
				progressed = true
			}
		}
		if !progressed {
			break // every target is at cap; leftover budget is unusable
		}
	}
	return out
}
