package tpp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Engine names how marginal gains Δ_p are evaluated. The choice is not a
// knob: the free functions (SGBGreedy, CTGreedy, WTGreedy, CriticalBudget)
// always recount, and a Protector session always selects through its motif
// index. The type remains for the session's wire spelling (ParseEngine,
// WithEngine) and the snapshot's engine byte.
type Engine int

const (
	// EngineRecount re-enumerates target subgraphs from the graph for every
	// candidate at every step — the paper's plain algorithms, whose running
	// time Fig. 5 measures. The free functions run it.
	EngineRecount Engine = iota
	// EngineIndexed uses the inverted edge→instance index (motif.Index),
	// which keeps every exact gain in an indexed max-heap, so each greedy
	// step's argmax is one heap read. A session runs it; selections are
	// identical to EngineRecount, only the cost differs.
	EngineIndexed
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineRecount:
		return "recount"
	case EngineIndexed:
		return "indexed"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Scope selects the candidate protector universe.
type Scope int

const (
	// ScopeAllEdges scans every remaining edge of the graph — the paper's
	// plain SGB/CT/WT-Greedy.
	ScopeAllEdges Scope = iota
	// ScopeTargetSubgraphs restricts candidates to edges participating in
	// target subgraphs (Lemma 5) — the paper's -R variants.
	ScopeTargetSubgraphs
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeAllEdges:
		return "all-edges"
	case ScopeTargetSubgraphs:
		return "restricted"
	}
	return fmt.Sprintf("Scope(%d)", int(s))
}

// VariantName renders the conventional paper name for an algorithm base
// name in this scope, e.g. "SGB-Greedy-R".
func (s Scope) VariantName(base string) string {
	if s == ScopeTargetSubgraphs {
		return base + "-R"
	}
	return base
}

// evaluator is the internal gain oracle shared by the greedy algorithms.
// Both implementations agree exactly on every gain value; they differ only
// in cost. It is keyed by dense graph.EdgeID throughout — ids are interned
// once from the phase-1 graph and ascend in canonical edge order, so the
// greedy loops sort nothing and hash nothing; results convert back to
// graph.Edge via interner() only at the Result boundary.
type evaluator interface {
	// totalSimilarity returns Σ_t s(P, t) in the current state.
	totalSimilarity() int
	// similarities returns the live per-target similarity slice (read-only).
	similarities() []int
	// interner translates between EdgeIDs and edges; all evaluators for the
	// same problem intern the same phase-1 edge universe, so ids agree
	// across engines.
	interner() *graph.Interner
	// gain returns Δ_p for the current state.
	gain(p graph.EdgeID) int
	// gainVector writes the per-target gains of p into buf (len = target
	// count) and returns (buf, total), or (nil, 0) when p breaks nothing —
	// one evaluation serves every (t, p) pair, the key to the paper's
	// O(knm log²N) bound for CT/WT-Greedy.
	gainVector(p graph.EdgeID, buf []int) (perTarget []int, total int)
	// candidates appends the current candidate protector ids to buf in
	// ascending (canonical) order, honouring the scope, and returns it.
	candidates(buf []graph.EdgeID) []graph.EdgeID
	// delete commits the deletion of p, returning the realised gain.
	delete(p graph.EdgeID) int
}

// argmaxEvaluator is the optional fast path for SGB: evaluators backed by
// the motif index answer the per-step argmax from their gain heap in O(1)
// instead of a candidate scan. The heap's (gain desc, id asc) order equals
// the scan's tie-break, so selections are bit-identical either way.
type argmaxEvaluator interface {
	argmax() (best graph.EdgeID, bestGain int, ok bool)
}

// ---------------------------------------------------------------------------
// Recount evaluator: the paper's naive cost model.

type recountEvaluator struct {
	g       *graph.Graph
	in      *graph.Interner // phase-1 edge universe; deletions only shrink it
	pattern motif.Pattern
	targets []graph.Edge
	scope   Scope
	per     []int
	total   int
	seen    []bool        // scratch for restricted candidate collection, by id
	sc      motif.Scratch // enumeration scratch reused across every recount
	perBuf  []int         // per-target recount scratch for gainVector/delete
}

func newRecountEvaluator(p *Problem, scope Scope) *recountEvaluator {
	g := p.G.Clone()
	total, per := motif.CountAll(g, p.Pattern, p.Targets)
	in := graph.NewInterner(g)
	return &recountEvaluator{
		g:       g,
		in:      in,
		pattern: p.Pattern,
		targets: p.Targets,
		scope:   scope,
		per:     per,
		total:   total,
		seen:    make([]bool, in.NumEdges()),
		perBuf:  make([]int, len(p.Targets)),
	}
}

func (r *recountEvaluator) totalSimilarity() int { return r.total }

func (r *recountEvaluator) similarities() []int { return r.per }

func (r *recountEvaluator) interner() *graph.Interner { return r.in }

// gain is one paper-cost probe: delete, recount, restore.
//
//tpp:hotpath
func (r *recountEvaluator) gain(p graph.EdgeID) int {
	e := r.in.Edge(p)
	if !r.g.HasEdgeE(e) {
		return 0
	}
	r.g.RemoveEdgeE(e)
	after := motif.CountTotalScratch(r.g, r.pattern, r.targets, &r.sc)
	r.g.AddEdgeE(e)
	return r.total - after
}

// gainVector is gain split per target, written into the caller's buf.
//
//tpp:hotpath
func (r *recountEvaluator) gainVector(p graph.EdgeID, buf []int) ([]int, int) {
	e := r.in.Edge(p)
	if !r.g.HasEdgeE(e) {
		return nil, 0
	}
	r.g.RemoveEdgeE(e)
	afterTotal := motif.CountAllScratch(r.g, r.pattern, r.targets, &r.sc, r.perBuf)
	r.g.AddEdgeE(e)
	total := r.total - afterTotal
	if total == 0 {
		return nil, 0
	}
	for i := range buf {
		buf[i] = r.per[i] - r.perBuf[i]
	}
	return buf, total
}

// candidates appends the current candidate ids to buf in canonical order.
//
//tpp:hotpath
func (r *recountEvaluator) candidates(buf []graph.EdgeID) []graph.EdgeID {
	if r.scope == ScopeAllEdges {
		// Every interned edge still present in the working graph, ascending
		// id = canonical order.
		for id := 0; id < r.in.NumEdges(); id++ {
			if r.g.HasEdgeE(r.in.Edge(graph.EdgeID(id))) {
				buf = append(buf, graph.EdgeID(id))
			}
		}
		return buf
	}
	// Lemma 5: only edges of currently existing target subgraphs can break
	// target subgraphs. Re-enumerate on the current graph, dedup by id.
	for _, t := range r.targets {
		//lint:hotalloc-ok one visitor closure per scan, not per instance
		motif.EnumerateTargetScratch(r.g, r.pattern, t, &r.sc, func(edges []graph.Edge) {
			for _, e := range edges {
				r.seen[r.in.ID(e)] = true
			}
		})
	}
	for id := range r.seen {
		if r.seen[id] {
			buf = append(buf, graph.EdgeID(id))
			r.seen[id] = false
		}
	}
	return buf
}

// delete commits a deletion and folds the recount into the running totals.
//
//tpp:hotpath
func (r *recountEvaluator) delete(p graph.EdgeID) int {
	if !r.g.RemoveEdgeE(r.in.Edge(p)) {
		return 0
	}
	after := motif.CountAllScratch(r.g, r.pattern, r.targets, &r.sc, r.perBuf)
	gain := r.total - after
	r.total = after
	copy(r.per, r.perBuf)
	return gain
}

// ---------------------------------------------------------------------------
// Indexed evaluator: exact same gains, answered from the inverted index.

type indexedEvaluator struct {
	ix *motif.Index
}

func (ie *indexedEvaluator) totalSimilarity() int { return ie.ix.TotalSimilarity() }

func (ie *indexedEvaluator) similarities() []int { return ie.ix.Similarities() }

func (ie *indexedEvaluator) interner() *graph.Interner { return ie.ix.Interner() }

// gain reads the maintained per-edge gain; a deleted edge's gain is
// already 0 in the index, so no deletion check is needed.
func (ie *indexedEvaluator) gain(p graph.EdgeID) int { return ie.ix.GainID(p) }

func (ie *indexedEvaluator) gainVector(p graph.EdgeID, buf []int) ([]int, int) {
	return ie.ix.GainVectorIDInto(p, buf)
}

func (ie *indexedEvaluator) candidates(buf []graph.EdgeID) []graph.EdgeID {
	return ie.ix.AppendCandidateIDs(buf)
}

func (ie *indexedEvaluator) delete(p graph.EdgeID) int { return ie.ix.DeleteEdgeID(p) }

func (ie *indexedEvaluator) argmax() (graph.EdgeID, int, bool) { return ie.ix.ArgmaxGainID() }
