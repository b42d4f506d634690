package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Warm-start selection ablation: the steady-state delta→protect loop of an
// evolving session, selection served by warm-start replay (reuse the
// previous run's protector sequence, verify residual gains through the
// delta's touched-edge set) versus the same loop forced cold (full greedy
// selection from scratch every round, index maintenance still incremental).
// Both sides pay the identical incremental Apply, so it runs outside the
// timer; the measured gap is the selection itself. BENCH_warmsel.json
// records the measured numbers; the warm side's allocations scale with the
// delta and the selection length, not with the candidate universe.

// benchSteadyStateLoop drives one delta→protect round per iteration on a
// long-lived session over DBLPSim(4000): 8-event mixed mutation batches
// (DefaultChurnRates) applied off the clock, then a timed protection run —
// budget-capped (the steady-state monitoring shape: re-protect to a fixed
// budget after every delta) or unbounded (budget 0: run to the critical
// budget, full protection).
func benchSteadyStateLoop(b *testing.B, pattern string, budget int, warm bool) {
	b.Helper()
	pat, err := motif.ParsePattern(pattern)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var (
		session                   *tpp.Protector
		churn                     *gen.MutationChurn
		warmTot, coldTot, fallTot int
	)
	retire := func() {
		if session != nil {
			warmTot += session.WarmRuns()
			coldTot += session.ColdRuns()
			fallTot += session.WarmFallbacks()
		}
	}
	// A long mutation stream drifts the graph away from the DBLP stand-in's
	// motif density (random insertions rarely recreate triangles), so the
	// fixture is regenerated every rebuildEvery rounds — off the clock, both
	// sides identically — keeping every timed round on a near-fresh graph.
	const rebuildEvery = 256
	rebuild := func() {
		retire()
		g := dblp4000()
		rng := rand.New(rand.NewSource(99))
		targets := datasets.SampleTargets(g, 384, rng)
		churn = gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)
		session, err = tpp.New(g, targets,
			tpp.WithPattern(pat), tpp.WithBudget(budget), tpp.WithWarmStart(warm))
		if err != nil {
			b.Fatal(err)
		}
		// Prime: build the index and (on the warm side) the first snapshot.
		if _, err := session.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	rebuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Apply is untimed but changes the session the timed Run reads, so
		// the timer stops around it every round.
		b.StopTimer()
		if i > 0 && i%rebuildEvery == 0 {
			rebuild()
		}
		d := dynamic.Delta(churn.Next(8))
		if _, err := session.Apply(ctx, d); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := session.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	retire()
	if warm {
		total := warmTot + coldTot
		b.ReportMetric(float64(warmTot)/float64(total), "warm-hit-rate")
		// Guard against a misconfigured warm side. Long unbounded selections
		// diverge more often (any touched candidate overtaking the remembered
		// sequence ends full replay, though the verified prefix is still
		// reused), so the floor is deliberately loose.
		if b.N >= 20 && warmTot*4 < total {
			b.Fatalf("warm side mostly ran cold: warm=%d cold=%d fallbacks=%d", warmTot, coldTot, fallTot)
		}
	} else if warmTot != 0 {
		b.Fatalf("cold side served %d warm runs", warmTot)
	}
}

func steadyStateCases() []struct {
	pattern string
	budget  int
} {
	return []struct {
		pattern string
		budget  int
	}{
		{"Triangle", 32},
		{"Triangle", 0},
		{"Rectangle", 32},
		{"Rectangle", 0},
	}
}

func steadyStateName(pattern string, budget int) string {
	if budget == 0 {
		return fmt.Sprintf("%s/scale=4000/delta=8/budget=crit", pattern)
	}
	return fmt.Sprintf("%s/scale=4000/delta=8/budget=%d", pattern, budget)
}

// BenchmarkSteadyStateLoopWarm measures the delta→protect loop with the
// warm-start engine on (the session default).
func BenchmarkSteadyStateLoopWarm(b *testing.B) {
	for _, c := range steadyStateCases() {
		b.Run(steadyStateName(c.pattern, c.budget), func(b *testing.B) {
			benchSteadyStateLoop(b, c.pattern, c.budget, true)
		})
	}
}

// BenchmarkSteadyStateLoopCold measures the identical loop with warm-start
// disabled: every protect pays the full greedy selection.
func BenchmarkSteadyStateLoopCold(b *testing.B) {
	for _, c := range steadyStateCases() {
		b.Run(steadyStateName(c.pattern, c.budget), func(b *testing.B) {
			benchSteadyStateLoop(b, c.pattern, c.budget, false)
		})
	}
}
