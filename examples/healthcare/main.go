// Healthcare scenario from the paper's introduction: a patient's visit to
// a specialist doctor is a sensitive link whose disclosure reveals the
// diagnosis. The hospital releases its interaction graph for research and
// must guarantee the patient–oncologist links cannot be inferred.
//
// This example builds a synthetic hospital interaction network (patients,
// general practitioners, specialists), marks patient–oncologist links as
// targets, compares budget-division strategies (TBD vs DBD) under CT- and
// WT-Greedy, and reports the utility cost of the release. All four runs
// share one Protector session, so the expensive motif-subgraph enumeration
// happens exactly once and each subsequent run reuses the cached index.
//
// Run with: go run ./examples/healthcare
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/motif"
	"repro/internal/tpp"
)

const (
	numPatients    = 120
	numGPs         = 12
	numSpecialists = 4
)

func main() {
	rng := rand.New(rand.NewSource(42))
	g, targets := buildHospitalGraph(rng)
	fmt.Printf("hospital graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("sensitive patient–oncologist links: %d\n", len(targets))

	// Oncologist referrals flow through GPs, so the adversary's best motif
	// is the RecTri pattern (shared GP + referral chain). Protect against
	// it with per-target budgets: every patient deserves individual cover.
	session, err := tpp.New(g, targets, tpp.WithPattern(motif.RecTri))
	if err != nil {
		log.Fatal(err)
	}
	initial := session.Problem().InitialSimilarity()
	fmt.Printf("initial RecTri similarity s(∅,T) = %d\n", initial)

	ctx := context.Background()
	k := initial // enough budget for full protection
	for _, division := range []tpp.Division{tpp.DivisionTBD, tpp.DivisionDBD} {
		fmt.Printf("\n%s budget division (k = %d):\n", division, k)
		for _, method := range []tpp.Method{tpp.MethodCT, tpp.MethodWT} {
			// Per-run overrides: the session re-dispatches without paying
			// the motif enumeration again.
			res, err := session.Run(ctx,
				tpp.WithMethod(method),
				tpp.WithDivision(division),
				tpp.WithBudget(k),
			)
			if err != nil {
				log.Fatal(err)
			}
			report(session, g, res)
		}
	}
	fmt.Printf("\nmotif index built %d time(s) across 4 runs — the session cache at work\n",
		session.IndexBuilds())
}

func report(session *tpp.Protector, g *graph.Graph, res *tpp.Result) {
	released := session.Release(res)
	rng := rand.New(rand.NewSource(7))
	orig := metrics.Compute(g, metrics.LargeGraphMetrics, rng)
	rel := metrics.Compute(released, metrics.LargeGraphMetrics, rand.New(rand.NewSource(7)))
	_, loss := metrics.AverageUtilityLoss(orig, rel)
	status := "FULL PROTECTION"
	if !res.FullProtection() {
		status = fmt.Sprintf("%d subgraphs remain", res.FinalSimilarity())
	}
	fmt.Printf("  %-12s deleted %3d protectors — %s, utility loss %.2f%%\n",
		res.Method, len(res.Protectors), status, loss*100)
}

// buildHospitalGraph wires patients to GPs (many visible links), GPs to
// specialists (referral network), and a few patients directly to an
// oncologist (the sensitive links).
func buildHospitalGraph(rng *rand.Rand) (*graph.Graph, []graph.Edge) {
	n := numPatients + numGPs + numSpecialists
	g := graph.New(n)
	gp := func(i int) graph.NodeID { return graph.NodeID(numPatients + i) }
	spec := func(i int) graph.NodeID { return graph.NodeID(numPatients + numGPs + i) }

	// Every patient sees 1–3 GPs; patients sharing a GP often know each
	// other (waiting-room friendships keep clustering realistic).
	for pt := 0; pt < numPatients; pt++ {
		visits := 1 + rng.Intn(3)
		for i := 0; i < visits; i++ {
			g.AddEdge(graph.NodeID(pt), gp(rng.Intn(numGPs)))
		}
		if pt > 0 && rng.Float64() < 0.4 {
			g.AddEdge(graph.NodeID(pt), graph.NodeID(rng.Intn(pt)))
		}
	}
	// GPs refer to specialists; the referral network is dense.
	for d := 0; d < numGPs; d++ {
		for s := 0; s < numSpecialists; s++ {
			if rng.Float64() < 0.6 {
				g.AddEdge(gp(d), spec(s))
			}
		}
	}
	// GPs consult each other.
	for d := 0; d < numGPs; d++ {
		g.AddEdge(gp(d), gp((d+1)%numGPs))
	}

	// The sensitive links: a handful of patients see oncologist spec(0)
	// directly.
	var targets []graph.Edge
	for len(targets) < 6 {
		pt := graph.NodeID(rng.Intn(numPatients))
		if g.AddEdge(pt, spec(0)) {
			targets = append(targets, graph.NewEdge(pt, spec(0)))
		}
	}
	return g, targets
}
