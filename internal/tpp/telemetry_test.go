package tpp

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/telemetry"
)

// TestSessionStagesRecorded drives a session through its lifecycle with a
// stage recorder on the context and checks every pipeline phase lands in
// the right stage bucket.
func TestSessionStagesRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.BarabasiAlbertTriad(160, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 8, rng)

	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	sp := telemetry.NewStages(nil)
	ctx := telemetry.NewContext(context.Background(), sp)

	// First run: one enumeration plus one cold selection.
	if _, err := session.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sp.Calls(telemetry.StageEnumerate); got != 1 {
		t.Errorf("enumerate calls after first run = %d, want 1", got)
	}
	if got := sp.Calls(telemetry.StageColdSelect); got != 1 {
		t.Errorf("cold-select calls after first run = %d, want 1", got)
	}
	if got := sp.Calls(telemetry.StageWarmReplay); got != 0 {
		t.Errorf("warm-replay calls after first run = %d, want 0", got)
	}

	// Delta then re-run: one delta-apply span, and the selection lands in
	// either the warm or the cold bucket (both are legitimate outcomes).
	churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)
	if _, err := session.Apply(ctx, dynamic.Delta(churn.Next(4))); err != nil {
		t.Fatal(err)
	}
	if got := sp.Calls(telemetry.StageDeltaApply); got != 1 {
		t.Errorf("delta-apply calls = %d, want 1", got)
	}
	if _, err := session.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sp.Calls(telemetry.StageWarmReplay) + sp.Calls(telemetry.StageColdSelect); got != 2 {
		t.Errorf("selection spans after second run = %d, want 2", got)
	}

	// Second enumeration never happens: the index is maintained in place.
	if got := sp.Calls(telemetry.StageEnumerate); got != 1 {
		t.Errorf("enumerate calls after delta round = %d, want 1 (index reused)", got)
	}
	if sp.Total() <= 0 {
		t.Errorf("total recorded nanoseconds = %d, want > 0", sp.Total())
	}
}

// TestBaselineMethodsRecordColdSelect checks the non-SGB methods attribute
// their selection to the cold stage (they have no warm path).
func TestBaselineMethodsRecordColdSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.BarabasiAlbertTriad(80, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	for _, method := range []Method{MethodCT, MethodRD} {
		session, err := New(g, targets, WithMethod(method), WithBudget(4))
		if err != nil {
			t.Fatal(err)
		}
		sp := telemetry.NewStages(nil)
		if _, err := session.Run(telemetry.NewContext(context.Background(), sp)); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got := sp.Calls(telemetry.StageColdSelect); got < 1 {
			t.Errorf("%s: cold-select calls = %d, want >= 1", method, got)
		}
	}
}

// steadyStateMallocs runs rounds of the delta→protect loop on a fresh
// deterministic session and returns the heap allocation count of each
// counted round's body (fixture, priming and delta generation excluded).
// Both the instrumented and the uninstrumented caller perform bit-identical
// work — same seed, same deltas, same selections — so round i of one does
// the same selection work as round i of the other, and any allocation
// difference is attributable to the telemetry recording itself.
func steadyStateMallocs(t *testing.T, rounds int, sp *telemetry.Stages) []int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := gen.BarabasiAlbertTriad(200, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 8, rng)
	session, err := New(g, targets, WithBudget(8), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.NewContext(context.Background(), sp)
	if _, err := session.Run(ctx); err != nil {
		t.Fatal(err)
	}
	churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)
	deltas := make([]dynamic.Delta, rounds)
	for i := range deltas {
		deltas[i] = dynamic.Delta(churn.Next(4))
	}
	// A few throwaway rounds let scratch slices and index pools reach their
	// steady-state capacity before counting.
	for i := 0; i < 4 && i < rounds; i++ {
		if _, err := session.Apply(ctx, deltas[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	perRound := make([]int64, 0, rounds-4)
	for i := 4; i < rounds; i++ {
		runtime.ReadMemStats(&before)
		if _, err := session.Apply(ctx, deltas[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Run(ctx); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRound = append(perRound, int64(after.Mallocs-before.Mallocs))
	}
	return perRound
}

// TestObservedProtectLoopAllocParity is the zero-alloc regression test for
// stage recording on the steady-state protect loop: an instrumented loop
// may not allocate measurably more than the identical uninstrumented one.
// A single stray allocation per recorded span would show up as at least two
// extra allocations in every round (one selection span + one delta span).
//
// The loops are compared round by round, by the median of the per-round
// differences, not by their totals: a round that regrows a build scratch
// the runtime dropped from its pool (the race detector drops pooled items
// at random) allocates more on either side, and such rounds are outliers
// the median ignores while a per-span allocation moves every round.
func TestObservedProtectLoopAllocParity(t *testing.T) {
	const rounds = 36
	base := steadyStateMallocs(t, rounds, nil)
	instr := steadyStateMallocs(t, rounds, telemetry.NewStages(nil))
	extra := make([]int64, len(base))
	for i := range base {
		extra[i] = instr[i] - base[i]
	}
	slices.Sort(extra)
	// Half an allocation per round: the median of the differences, the mean
	// of the two middle ones, may not exceed it.
	n := len(extra)
	if twiceMedian := extra[(n-1)/2] + extra[n/2]; twiceMedian > 1 {
		t.Errorf("instrumented loop allocated a median %.1f more times per round than uninstrumented (per-round extras %v, tolerance 0.5)",
			float64(twiceMedian)/2, extra)
	}
}
