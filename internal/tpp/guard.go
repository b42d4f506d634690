package tpp

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Guard maintains TPP's full-protection invariant on an *evolving* graph —
// the paper's third open problem ("applications into real trust systems or
// social graphs", Sec. VII). Social graphs grow after release: a newly
// formed link can complete fresh target subgraphs and silently re-expose a
// target. Guard admits edge insertions one at a time and, whenever an
// insertion creates target subgraphs, immediately deletes a greedy-chosen
// set of protectors to restore s(P, T) = 0.
//
// Invariant (checked after every operation): no motif instance completes
// any target on the maintained graph. Target links themselves are never
// admitted.
type Guard struct {
	pattern motif.Pattern
	targets []graph.Edge
	isT     map[graph.Edge]bool
	g       *graph.Graph

	// Deletions holds every protector deleted over the guard's lifetime,
	// in deletion order (initial protection first).
	Deletions []graph.Edge
	// Rejected counts insertion attempts refused because they were target
	// links.
	Rejected int
}

// NewGuardCtx protects the problem fully (SGB greedy at the critical
// budget) and returns a guard maintaining that state; ctx cancels the
// initial protection run. The problem's graph is not mutated; the guard
// owns a private copy.
func NewGuardCtx(ctx context.Context, p *Problem) (*Guard, error) {
	_, res, err := CriticalBudgetCtx(ctx, p, Options{Engine: EngineIndexed})
	if err != nil {
		return nil, err
	}
	gd := &Guard{
		pattern: p.Pattern,
		targets: append([]graph.Edge(nil), p.Targets...),
		isT:     make(map[graph.Edge]bool, len(p.Targets)),
		g:       p.ProtectedGraph(res.Protectors),
	}
	for _, t := range p.Targets {
		gd.isT[t] = true
	}
	gd.Deletions = append(gd.Deletions, res.Protectors...)
	return gd, nil
}

// Graph returns the maintained (always fully protected) graph. Callers
// must not mutate it; use AddEdge.
func (gd *Guard) Graph() *graph.Graph { return gd.g }

// Similarity returns the current total target similarity — zero whenever
// the invariant holds (exposed for tests and monitoring).
func (gd *Guard) Similarity() int {
	total, _ := motif.CountAll(gd.g, gd.pattern, gd.targets)
	return total
}

// AddEdge admits a new link into the released graph. If the link is a
// target it is rejected (admitted=false). Otherwise it is inserted and,
// if it completed any target subgraphs, protectors are greedily deleted
// until full protection is restored; the deleted edges are returned (the
// new link itself is a legal protector and is often the cheapest fix).
func (gd *Guard) AddEdge(u, v graph.NodeID) (admitted bool, deleted []graph.Edge, err error) {
	return gd.AddEdgeCtx(context.Background(), u, v)
}

// AddEdgeCtx is AddEdge with cooperative cancellation of the re-protection
// loop. If ctx expires mid-repair, the new edge has already been admitted
// and the protector deletions applied so far are recorded in Deletions and
// returned as (true, deleted, ctx.Err()) — but the maintained graph may be
// left with residual similarity, so callers should discard the guard.
func (gd *Guard) AddEdgeCtx(ctx context.Context, u, v graph.NodeID) (admitted bool, deleted []graph.Edge, err error) {
	if u == v {
		return false, nil, fmt.Errorf("tpp: guard: self loop %d-%d", u, v)
	}
	if int(u) >= gd.g.NumNodes() || int(v) >= gd.g.NumNodes() || u < 0 || v < 0 {
		return false, nil, fmt.Errorf("tpp: guard: node out of range in %d-%d", u, v)
	}
	e := graph.NewEdge(u, v)
	if gd.isT[e] {
		gd.Rejected++
		return false, nil, nil
	}
	if !gd.g.AddEdgeE(e) {
		return true, nil, nil // already present: nothing to do
	}

	// Fast path: the maintained graph was fully protected, so similarity
	// can only have become positive through an instance containing the new
	// edge — and motif.CanCreateInstances soundly rules that out per target
	// with a constant number of adjacency probes. Most insertions touch no
	// target and admit without any enumeration.
	touched := false
	for _, t := range gd.targets {
		if motif.CanCreateInstances(gd.g, gd.pattern, t, e) {
			touched = true
			break
		}
	}
	if !touched {
		return true, nil, nil
	}

	// Re-protect if the insertion completed target subgraphs. The index
	// rebuild enumerates from the current graph, so it captures exactly
	// the instances the new edge enabled.
	ix, err := motif.NewIndex(gd.g, gd.pattern, gd.targets)
	if err != nil {
		return false, nil, err
	}
	for ix.TotalSimilarity() > 0 {
		if err := ctx.Err(); err != nil {
			gd.Deletions = append(gd.Deletions, deleted...)
			return true, deleted, err
		}
		best, gain, ok := ix.ArgmaxGain()
		if !ok || gain == 0 {
			return false, nil, fmt.Errorf("tpp: guard: cannot restore protection (residual similarity %d)", ix.TotalSimilarity())
		}
		ix.DeleteEdge(best)
		gd.g.RemoveEdgeE(best)
		deleted = append(deleted, best)
	}
	gd.Deletions = append(gd.Deletions, deleted...)
	return true, deleted, nil
}

// AddNode grows the graph by one isolated node and returns its ID —
// evolving graphs gain members, not just links.
func (gd *Guard) AddNode() graph.NodeID { return gd.g.AddNode() }
