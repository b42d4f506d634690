package tpp

import (
	"context"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/telemetry"
)

// ProgressFunc observes a selection run: it is called after every committed
// protector deletion with the 1-based step number, the deleted edge, and
// the total similarity remaining. Callbacks run synchronously on the
// selection goroutine, so they must be fast; they are the natural place to
// report progress or trip a context cancellation.
type ProgressFunc func(step int, protector graph.Edge, similarity int)

// runEnv carries the session-level plumbing into the greedy selection
// loops: the cancellation context, the session's motif index to select
// through, an optional progress callback and the stage recorder.
// The zero value (no context, no index, no progress) is the free
// functions': they recount over the scope they are given.
type runEnv struct {
	ctx      context.Context
	ix       *motif.Index
	progress ProgressFunc
	// stages receives per-stage timing spans (enumeration, scoring, warm
	// replay, cold selection). nil — the common free-function case — records
	// nothing; telemetry.Stages is nil-safe by contract.
	stages *telemetry.Stages
	// remembered is the length of the session's remembered selection, or 0
	// when there is none: the best guess at an unbudgeted run's length.
	remembered int
}

// steps is the expected selection length of a run with budget k over a
// universe of candidate edges, which bounds any selection: the budget when
// it binds, else the remembered selection's length, else 0 (unknown: the
// Result grows by append). The universe is no estimate of an unbudgeted
// run: on a 512-target Pentagon session it is about 3 800 edges against a
// selection of about 730, and sizing from it doubled the Result's bytes.
func (e *runEnv) steps(k, universe int) int {
	switch {
	case k < universe:
		return k
	case e.remembered > 0:
		return min(e.remembered, universe)
	}
	return 0
}

// err reports the context's cancellation state without blocking. Selection
// loops call it once per committed step (and periodically inside candidate
// scans), so a cancelled or expired context aborts a run mid-selection.
func (e *runEnv) err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// onStep fires the progress callback for the most recently recorded step.
func (e *runEnv) onStep(res *Result) {
	if e.progress == nil {
		return
	}
	n := len(res.Protectors)
	e.progress(n, res.Protectors[n-1], res.SimilarityTrace[n])
}

// evaluator returns the gain oracle for the run: the session's index when
// one is installed, else a recount evaluator over scope.
func (e *runEnv) evaluator(p *Problem, scope Scope) evaluator {
	if e.ix != nil {
		return &indexedEvaluator{ix: e.ix}
	}
	return newRecountEvaluator(p, scope)
}

// index returns the session's index, or builds one for the problem: the
// RD/RDT free functions' similarity trace.
func (e *runEnv) index(p *Problem) (*motif.Index, error) {
	if e.ix != nil {
		return e.ix, nil
	}
	return motif.NewIndex(p.G, p.Pattern, p.Targets)
}

// checkEvery is how many candidate evaluations a scan performs between
// context checks, bounding both the cancellation latency of cheap indexed
// scans and the per-candidate overhead.
const checkEvery = 256
