// Package tpp implements the Target Privacy Preserving model of
// Jiang et al., "Target Privacy Preserving for Social Networks"
// (ICDE 2020): protecting a small set of sensitive target links by
// deleting a budget-limited set of non-target protector links so that
// motif-based link prediction can no longer infer the targets.
//
// The front door is the Protector session API: construct one session per
// graph + target set + motif pattern with New and functional options, then
// drive it with Run (context-aware, cancellable) any number of times —
// the session caches the motif index, so repeated runs with different
// budgets, methods or divisions skip the dominant subgraph-enumeration
// cost. Release materialises the released graph for a run's result:
//
//	session, err := tpp.New(g, targets,
//		tpp.WithPattern(motif.Triangle),
//		tpp.WithMethod(tpp.MethodWT),
//		tpp.WithDivision(tpp.DivisionDBD),
//		tpp.WithBudget(10))
//	res, err := session.Run(ctx)
//	released := session.Release(res)
//
// Underneath, the package provides the paper's three greedy
// protector-selection algorithms (SGB-Greedy, CT-Greedy, WT-Greedy), their
// scalable -R variants (Lemma 5 candidate restriction), the TBD and DBD
// budget division strategies and the RD/RDT baselines. The greedy free
// functions recount target subgraphs for every gain, in the Scope given:
// the paper's cost model, which Fig. 5 times and the session is checked
// against. cmd/tpp, cmd/tppd, the examples and the experiments select
// through the session.
package tpp

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Problem is one TPP instance in its phase-1 form: the graph with every
// target link withheld, a motif pattern defining what counts as a target
// subgraph, and the sensitive target links. Phase 1 of the paper's model
// deletes the targets and phase 2 selects protectors on what remains, so
// G plus Targets is the whole instance; the original graph is G with the
// target links added back.
type Problem struct {
	// G is the phase-1 graph: the original graph minus every target link,
	// the graph phase-2 protector selection runs on. It is the package's
	// own copy, never the caller's; readers that mutate clone it.
	G *graph.Graph
	// Pattern is the motif that adversarial link prediction exploits.
	Pattern motif.Pattern
	// Targets is the target link set T ⊆ E. The order is the caller's and
	// is preserved: WT-Greedy satisfies targets in this order, so it
	// encodes protection priority (paper Sec. V-C, "the first target").
	Targets []graph.Edge
}

// NewProblem validates and constructs a Problem. Every target must be an
// existing, distinct edge of g. Target order is preserved. The problem
// stores g's phase-1 form, a clone with the targets removed: g itself is
// neither retained nor mutated.
func NewProblem(g *graph.Graph, pattern motif.Pattern, targets []graph.Edge) (*Problem, error) {
	if g == nil {
		return nil, fmt.Errorf("tpp: nil graph")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("tpp: empty target set")
	}
	seen := make(map[graph.Edge]bool, len(targets))
	ts := make([]graph.Edge, 0, len(targets))
	for _, t := range targets {
		if !t.Canonical() {
			t = graph.NewEdge(t.U, t.V)
		}
		if !g.HasEdgeE(t) {
			return nil, fmt.Errorf("tpp: target %v is not an edge of the graph", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("tpp: duplicate target %v", t)
		}
		seen[t] = true
		ts = append(ts, t)
	}
	phase1 := g.Clone()
	phase1.RemoveEdges(ts)
	return &Problem{G: phase1, Pattern: pattern, Targets: ts}, nil
}

// original rebuilds the original graph: a fresh copy of G with the target
// links added back.
func (p *Problem) original() *graph.Graph {
	g := p.G.Clone()
	for _, t := range p.Targets {
		g.AddEdgeE(t)
	}
	return g
}

// ProtectedGraph returns the released graph: phase-1 graph minus the given
// protectors. This is what utility metrics and attack evaluation run on.
func (p *Problem) ProtectedGraph(protectors []graph.Edge) *graph.Graph {
	g := p.G.Clone()
	g.RemoveEdges(protectors)
	return g
}

// InitialSimilarity returns s(∅, T): the total number of target subgraphs
// before any protector deletion. It doubles as the dissimilarity constant C
// (the paper requires C ≥ s(∅, T); choosing equality makes f(∅, T) = 0 and
// f(P, T) = number of broken target subgraphs).
func (p *Problem) InitialSimilarity() int {
	total, _ := motif.CountAll(p.G, p.Pattern, p.Targets)
	return total
}

// TargetIndex returns the position of t in the canonical target ordering,
// or -1.
func (p *Problem) TargetIndex(t graph.Edge) int {
	for i, x := range p.Targets {
		if x == t {
			return i
		}
	}
	return -1
}

// Result records the outcome of one protector-selection run.
type Result struct {
	// Method names the algorithm variant, e.g. "SGB-Greedy-R" or
	// "CT-Greedy:TBD".
	Method string
	// Protectors lists the deleted protector links in selection order.
	Protectors []graph.Edge
	// SimilarityTrace[i] is the total similarity s(P_i, T) after deleting
	// the first i protectors; SimilarityTrace[0] = s(∅, T). Its length is
	// len(Protectors)+1.
	SimilarityTrace []int
	// PerTargetFinal holds s(P, t) for every target after all deletions.
	PerTargetFinal []int
	// Elapsed is the total wall-clock selection time (the quantity
	// Figs. 5–6 report).
	Elapsed time.Duration
	// StepElapsed[i] is the cumulative wall-clock time when the i-th
	// protector was committed, so one run yields the whole running-time-
	// versus-budget curve.
	StepElapsed []time.Duration
	// WarmStart reports whether a Protector session served this run from its
	// warm-start engine — replaying and re-verifying the previous run's
	// selection against the incrementally maintained index — instead of a
	// cold greedy run. Warm and cold selections are bit-identical (method
	// name, protectors, similarity trace, per-target finals); the flag is
	// observability only, and timings are the only other thing that differs.
	WarmStart bool
}

// FinalSimilarity returns s(P, T) after all deletions.
func (r *Result) FinalSimilarity() int {
	return r.SimilarityTrace[len(r.SimilarityTrace)-1]
}

// Dissimilarity returns f(P, T) with C = s(∅, T): the number of target
// subgraphs broken by the selected protectors.
func (r *Result) Dissimilarity() int {
	return r.SimilarityTrace[0] - r.FinalSimilarity()
}

// FullProtection reports whether every target subgraph was broken
// (s(P, T) = 0), the paper's "full protection" condition.
func (r *Result) FullProtection() bool { return r.FinalSimilarity() == 0 }

// SimilarityAt returns s(P_k, T) after the first k deletions, clamping k to
// the number of protectors actually selected (greedy may stop early once
// all gains are zero).
func (r *Result) SimilarityAt(k int) int {
	if k >= len(r.SimilarityTrace) {
		k = len(r.SimilarityTrace) - 1
	}
	if k < 0 {
		k = 0
	}
	return r.SimilarityTrace[k]
}

// newResult starts a run's Result with room for steps protectors, so
// record never regrows its slices on a run of the expected length.
func newResult(method string, initial, steps int) *Result {
	r := &Result{
		Method:          method,
		Protectors:      make([]graph.Edge, 0, steps),
		SimilarityTrace: make([]int, 1, steps+1),
		StepElapsed:     make([]time.Duration, 0, steps),
	}
	r.SimilarityTrace[0] = initial
	return r
}

func (r *Result) record(p graph.Edge, similarity int, elapsed time.Duration) {
	r.Protectors = append(r.Protectors, p)
	r.SimilarityTrace = append(r.SimilarityTrace, similarity)
	r.StepElapsed = append(r.StepElapsed, elapsed)
}

// ElapsedAt returns the cumulative selection time for the first k
// protectors, clamped like SimilarityAt.
func (r *Result) ElapsedAt(k int) time.Duration {
	if len(r.StepElapsed) == 0 || k <= 0 {
		return 0
	}
	if k > len(r.StepElapsed) {
		k = len(r.StepElapsed)
	}
	return r.StepElapsed[k-1]
}
