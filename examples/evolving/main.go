// Evolving: track a changing social graph with one long-lived session.
//
// The paper protects a static snapshot, but real social graphs churn
// continuously — friendships form and dissolve, members join and leave,
// and which relationships are sensitive changes too. This example drives a
// tpp.Protector session through a seeded full-mutation stream
// (gen.NewMutationChurn): each round applies a batch of edge insertions
// and removals, node arrivals and departures, and target add/drop with
// session.Apply, which mutates the session's graph and target list and
// incrementally maintains its motif index (time proportional to the delta,
// not the graph — a dropped target's instances die through the index's CSR
// table, an added target enumerates only itself, a departure renames at
// most one surviving node), then re-protects on the updated state. The
// selections after every delta are bit-identical to a fresh session built
// on the mutated graph and mutated target list — the index never has to be
// re-enumerated.
//
// Run with: go run ./examples/evolving
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/motif"
	"repro/internal/telemetry"
	"repro/internal/tpp"
)

func main() {
	// A DBLP-like collaboration network and 96 initially sensitive links.
	ds := datasets.DBLPSim(3000, 7)
	rng := rand.New(rand.NewSource(7))
	targets := datasets.SampleTargets(ds.Graph, 96, rng)
	fmt.Printf("graph: %d nodes, %d edges; %d targets under Rectangle threat model\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(targets))

	session, err := tpp.New(ds.Graph, targets, tpp.WithPattern(motif.Rectangle))
	if err != nil {
		log.Fatal(err)
	}
	// A stage recorder on the context makes the pipeline account for its
	// time: enumeration, warm replay, cold selection and delta application
	// each land in their own bucket, at no allocation cost on the hot path.
	sp := telemetry.NewStages(nil)
	ctx := telemetry.NewContext(context.Background(), sp)

	// First protection pays the one-time subgraph enumeration.
	start := time.Now()
	res, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 0: k* = %d protectors in %v (index enumeration %v)\n",
		len(res.Protectors), time.Since(start).Round(time.Microsecond),
		session.IndexBuildTime().Round(time.Microsecond))

	// The network now evolves: 40 mutations per round — mostly edge churn,
	// plus members joining and leaving and sensitive links being promoted
	// and retired — never touching a protected link as an ordinary edge.
	churn := gen.NewMutationChurn(ds.Graph, targets, gen.DefaultChurnRates(), rng)
	for round := 1; round <= 5; round++ {
		delta := dynamic.Delta(churn.Next(40))
		rep, err := session.Apply(ctx, delta)
		if err != nil {
			log.Fatal(err)
		}
		res, err := session.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: +%d/-%d edges, +%d/-%d nodes, +%d/-%d targets in %v (re-enumerated %d old targets, killed %d, dropped %d instances) → %d targets, k* = %d, final similarity %d\n",
			round, rep.Inserted, rep.Removed, rep.NodesAdded, rep.NodesRemoved,
			rep.TargetsAdded, rep.TargetsDropped, rep.Elapsed.Round(time.Microsecond),
			rep.IndexStats.TouchedTargets, rep.IndexStats.KilledInstances, rep.IndexStats.DroppedInstances,
			rep.Targets, len(res.Protectors), res.FinalSimilarity())
	}

	// Steady state: the graph keeps drifting in small steps and the session
	// re-protects after every delta. Here the warm-start engine pays off —
	// each Run replays the previous protector sequence and re-verifies it
	// against the delta's touched-edge set instead of re-selecting from
	// scratch; a run that diverges finishes cold from the verified prefix.
	fmt.Println("\nsteady state: 20 rounds of 8-event deltas, re-protecting after each")
	warmBefore, coldBefore := session.WarmRuns(), session.ColdRuns()
	hits := 0
	for round := 0; round < 20; round++ {
		if _, err := session.Apply(ctx, dynamic.Delta(churn.Next(8))); err != nil {
			log.Fatal(err)
		}
		res, err := session.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if res.WarmStart {
			hits++
		}
	}
	fmt.Printf("warm-start hits: %d/20 rounds replayed in full; steady-state selections %d warm / %d cold (session totals: %d warm, %d cold, %d fallbacks)\n",
		hits, session.WarmRuns()-warmBefore, session.ColdRuns()-coldBefore,
		session.WarmRuns(), session.ColdRuns(), session.WarmFallbacks())

	fmt.Printf("\nafter %d deltas: index enumerations %d (the incremental path never rebuilt)\n",
		session.DeltasApplied(), session.IndexBuilds())
	fmt.Printf("total delta-apply time %v vs %v of enumeration a rebuild-per-delta design would have re-paid %d times\n",
		session.DeltaApplyTime().Round(time.Microsecond),
		session.IndexBuildTime().Round(time.Microsecond), session.DeltasApplied())

	// Where the session's time actually went, stage by stage — the same
	// breakdown tppd exports per request and at /metrics.
	fmt.Println("\nstage breakdown across the whole session:")
	for i := 0; i < telemetry.NumStages; i++ {
		st := telemetry.Stage(i)
		if sp.Calls(st) == 0 {
			continue
		}
		fmt.Printf("  %-12s %3d spans  %10v  (%4.1f%%)\n", st, sp.Calls(st),
			time.Duration(sp.Nanos(st)).Round(time.Microsecond),
			float64(sp.Nanos(st))/float64(sp.Total())*100)
	}
}
