package tpp

import (
	"context"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/telemetry"
)

// DeltaReport describes one committed Apply: what changed and how the
// session's cached state absorbed it.
type DeltaReport struct {
	// Inserted and Removed count the canonicalized delta's edge mutations.
	Inserted, Removed int
	// NodesAdded and NodesRemoved count the delta's node churn.
	NodesAdded, NodesRemoved int
	// TargetsAdded and TargetsDropped count the target-list edits; Targets
	// is the target count after the delta.
	TargetsAdded, TargetsDropped, Targets int
	// Nodes and Edges are the size of the session's original graph after
	// the delta: the phase-1 graph's edges plus the target links.
	Nodes, Edges int
	// NodeRemap is the node renaming the delta's node removals produced:
	// NodeRemap[old] is the node's new ID, graph.NoNode for removed nodes.
	// nil means no node was removed and every ID is unchanged. Callers
	// maintaining external node tables (label mappings, caches) must apply
	// it; note its length is the pre-removal node count including the
	// delta's additions.
	NodeRemap []graph.NodeID
	// Incremental reports whether a cached motif index existed and was
	// maintained in place; false means the session had not built an index
	// yet, so the next Run pays a fresh (full) enumeration.
	Incremental bool
	// IndexStats details the incremental index maintenance (zero value when
	// Incremental is false).
	IndexStats motif.ApplyStats
	// Elapsed is the total wall-clock cost of the Apply.
	Elapsed time.Duration
}

// Apply mutates the session by the delta — graph edges, node arrivals and
// departures, and target-set edits — and incrementally maintains the
// cached motif index, so the session tracks an evolving protection problem
// without ever re-enumerating from scratch: the next Run reuses the
// updated index exactly as if it had been freshly built on the mutated
// graph and mutated target list (the two are bit-identical — similarities,
// gains, selections).
//
// The delta is canonicalized and validated first — insertions must be new
// edges over live nodes, removals must exist, neither may touch a target
// link, an added target must be an absent non-target pair (it joins the
// target list but never the phase-1 graph, so no release carries it), a
// dropped target must currently be a target and at least one target must
// survive, and a removed node must end the delta isolated and
// target-free; validation failures wrap dynamic.ErrInvalid and leave the
// session untouched. Node departures compact the ID space
// (graph.RemoveNode swap-with-last): the report's NodeRemap says how
// surviving nodes were renamed. Apply serialises with Run on the session's
// run slot and honours ctx while waiting for it; like the index
// enumeration inside Run, the apply itself runs to completion once started
// (its cost is bounded by the enumeration a fresh build would pay, usually
// a small fraction of it).
//
// The delta mutates the session's own phase-1 graph in place; the graph
// passed to New was never retained. Results returned by earlier Runs
// describe the pre-delta graph and numbering; re-Run the session for
// selections on the current one.
func (pr *Protector) Apply(ctx context.Context, d dynamic.Delta) (*DeltaReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case pr.runSlot <- struct{}{}:
		defer func() { <-pr.runSlot }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	start := time.Now()
	p := pr.problem
	d, err := d.Canonicalize()
	if err != nil {
		return nil, err
	}
	if pr.targets.Len() == 0 {
		// A session keeps at least one target, so an empty set is one not
		// built yet: sessions that never take a delta never pay for it.
		pr.targets = dynamic.NewTargetSet(p.Targets)
	}
	if err := d.ValidateTargets(p.G, pr.targets); err != nil {
		return nil, err
	}
	remap := d.ApplyToGraph(p.G)
	p.Targets = d.ApplyTargets(p.Targets, remap)
	pr.targets.Apply(d, remap)
	rep := &DeltaReport{
		Inserted:       len(d.Insert),
		Removed:        len(d.Remove),
		NodesAdded:     d.AddNodes,
		NodesRemoved:   len(d.RemoveNodes),
		TargetsAdded:   len(d.AddTargets),
		TargetsDropped: len(d.DropTargets),
		Targets:        len(p.Targets),
		Nodes:          p.G.NumNodes(),
		Edges:          p.G.NumEdges() + len(p.Targets),
		NodeRemap:      remap,
	}
	if pr.ix != nil {
		st, err := pr.ix.ApplyMutation(p.G, motif.Mutation{
			Inserted:    d.Insert,
			Removed:     d.Remove,
			AddTargets:  d.AddTargets,
			DropTargets: d.DropTargets,
			Remap:       remap,
		})
		if err != nil {
			// Unreachable for a validated delta; if it ever happens the
			// index no longer matches the graph, so drop it and let the
			// next Run rebuild from scratch.
			pr.ix = nil
			pr.warm.invalidate()
			return nil, err
		}
		rep.Incremental = true
		rep.IndexStats = st
		// Keep the warm-start snapshot tracking the mutated session: rename
		// it under the node remap, fold in this delta's touched edges, and
		// re-resolve against the index's fresh interner.
		pr.warm.absorb(st.TouchedEdges, remap, p.G, pr.ix)
	} else {
		// No index means no touched-edge accounting for this delta; a stale
		// snapshot could not be re-verified, so drop it.
		pr.warm.invalidate()
	}
	rep.Elapsed = time.Since(start)
	pr.deltasApplied.Add(1)
	if stages := telemetry.FromContext(ctx); stages != nil {
		if rep.Incremental {
			// Attribute the measured index-maintenance cost; validation and
			// graph mutation around it are noise by comparison.
			rep.IndexStats.Record(stages)
		} else {
			stages.Add(telemetry.StageDeltaApply, rep.Elapsed)
		}
	}
	return rep, nil
}

// DeltasApplied reports how many deltas the session has committed.
func (pr *Protector) DeltasApplied() int { return int(pr.deltasApplied.Load()) }
