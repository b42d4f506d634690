package tpp

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
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
// deterministic session and returns the heap allocation count of the loop
// body alone (fixture, priming and delta generation excluded). Both the
// instrumented and the uninstrumented caller perform bit-identical work —
// same seed, same deltas, same selections — so any allocation difference is
// attributable to the telemetry recording itself.
func steadyStateMallocs(t *testing.T, rounds int, sp *telemetry.Stages) uint64 {
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
	runtime.ReadMemStats(&before)
	for i := 4; i < rounds; i++ {
		if _, err := session.Apply(ctx, deltas[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestObservedProtectLoopAllocParity is the zero-alloc regression test for
// stage recording on the steady-state protect loop: an instrumented loop
// may not allocate measurably more than the identical uninstrumented one.
// A single stray allocation per recorded span would show up as at least two
// extra allocations per round (one selection span + one delta span), far
// above the tolerance.
func TestObservedProtectLoopAllocParity(t *testing.T) {
	const rounds = 36
	base := steadyStateMallocs(t, rounds, nil)
	instr := steadyStateMallocs(t, rounds, telemetry.NewStages(nil))
	var extra uint64
	if instr > base {
		extra = instr - base
	}
	// The loops do identical selection work; allow a little scheduler noise,
	// well under one allocation per recorded span.
	const tolerance = (rounds - 4) / 2
	if extra > tolerance {
		t.Errorf("instrumented loop allocated %d more times than uninstrumented (%d vs %d, tolerance %d)",
			extra, instr, base, tolerance)
	}
}
