package telemetry

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of the protect pipeline. The taxonomy mirrors
// the paper's serving loop: motif enumeration (index build), warm-start
// replay, cold greedy selection, and incremental delta application, plus
// the score stage nothing records any more (see StageScore). Stages are a
// fixed enum, not strings, so recording is an array index away from an
// atomic add.
type Stage uint8

const (
	// StageEnumerate is motif enumeration: building or rebuilding the
	// motif instance index over the current graph.
	StageEnumerate Stage = iota
	// StageScore was the span of a session's recount-engine selection.
	// Sessions no longer run the recount engine, so nothing records it
	// now: /metrics still exports its (empty) series, and the value keeps
	// its place because the benchmark module names it in a keyed
	// [NumStages] array. The stage set is due to be redrawn.
	StageScore
	// StageWarmReplay is warm-start selection replay against the previous
	// run's prefix.
	StageWarmReplay
	// StageColdSelect is from-scratch greedy selection (including warm
	// divergence and threshold fallbacks).
	StageColdSelect
	// StageDeltaApply is incremental application of a session mutation to
	// the motif index.
	StageDeltaApply

	// NumStages is the number of pipeline stages.
	NumStages int = int(iota)
)

// stageNames is indexed by Stage and doubles as the `stage` label value in
// the exposition and the key in log breakdowns.
var stageNames = [NumStages]string{
	StageEnumerate:  "enumerate",
	StageScore:      "score",
	StageWarmReplay: "warm_replay",
	StageColdSelect: "cold_select",
	StageDeltaApply: "delta_apply",
}

// String returns the stage's label value ("enumerate", "score", ...).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageHistograms is a per-stage set of duration histograms registered on
// one Registry, shared by every request: the process-wide aggregate view.
type StageHistograms struct {
	h [NumStages]*Histogram
}

// NewStageHistograms registers one histogram series per stage under name
// (conventionally "tpp_stage_duration_seconds") with a `stage` label.
func NewStageHistograms(r *Registry, name, help string) *StageHistograms {
	sh := &StageHistograms{}
	for i := 0; i < NumStages; i++ {
		sh.h[i] = r.Histogram(name, help, DurationBounds(), 1e9,
			Label{Key: "stage", Value: Stage(i).String()})
	}
	return sh
}

// Observe records one span duration for stage st.
//
//tpp:hotpath
func (sh *StageHistograms) Observe(st Stage, d time.Duration) {
	if sh == nil {
		return
	}
	sh.h[st].Observe(int64(d))
}

// Stages is a per-request (or per-benchmark-iteration) stage recorder:
// flat atomic accumulators for nanoseconds and span counts, with an
// optional sink fanning every span into process-wide StageHistograms.
// It travels down the protect pipeline via context (NewContext /
// FromContext); a nil *Stages is valid everywhere and records nothing, so
// uninstrumented callers pay one branch.
//
// Counters are atomic because selection and delta application may record
// from worker goroutines.
type Stages struct {
	ns    [NumStages]atomic.Int64
	calls [NumStages]atomic.Int64
	sink  *StageHistograms
}

// NewStages returns a recorder fanning spans into sink (nil for a
// standalone recorder, e.g. in benchmarks).
func NewStages(sink *StageHistograms) *Stages {
	return &Stages{sink: sink}
}

// Add records one span of duration d under stage st.
//
//tpp:hotpath
func (sp *Stages) Add(st Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.ns[st].Add(int64(d))
	sp.calls[st].Add(1)
	sp.sink.Observe(st, d)
}

// Nanos returns the accumulated nanoseconds recorded under st.
func (sp *Stages) Nanos(st Stage) int64 {
	if sp == nil {
		return 0
	}
	return sp.ns[st].Load()
}

// Calls returns the number of spans recorded under st.
func (sp *Stages) Calls(st Stage) int64 {
	if sp == nil {
		return 0
	}
	return sp.calls[st].Load()
}

// Total returns the accumulated nanoseconds across all stages.
func (sp *Stages) Total() int64 {
	if sp == nil {
		return 0
	}
	var n int64
	for i := 0; i < NumStages; i++ {
		n += sp.ns[i].Load()
	}
	return n
}

// stagesKey is the context key type for Stages plumbing.
type stagesKey struct{}

// NewContext returns ctx carrying sp for downstream pipeline code.
func NewContext(ctx context.Context, sp *Stages) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, stagesKey{}, sp)
}

// FromContext returns the Stages carried by ctx, or nil — callers hand the
// result straight to nil-safe Add.
func FromContext(ctx context.Context) *Stages {
	sp, _ := ctx.Value(stagesKey{}).(*Stages)
	return sp
}
