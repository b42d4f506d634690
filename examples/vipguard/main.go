// VIP-guard scenario from the paper's introduction: an adversary studies a
// public social graph to find the close relations of a high-profile victim
// (family, key cooperators) as kidnapping or coercion leverage. The
// defender hides the VIP's sensitive ties and must ensure link prediction
// cannot restore them.
//
// This example runs the full attack/defense loop on a scale-free society:
// measure the adversary's success before protection (hidden links rank at
// the very top of every predictor), apply SGB-Greedy TPP, then measure
// again and show the attack collapsing, along with what the defense cost
// in deleted edges.
//
// Run with: go run ./examples/vipguard
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func main() {
	rng := rand.New(rand.NewSource(2026))

	// A scale-free society of 400 people; the highest-degree node is the
	// VIP (hubs attract attention).
	g := gen.BarabasiAlbertTriad(400, 4, 0.4, rng)
	vip := mostConnected(g)
	fmt.Printf("society: %d people, %d ties; VIP is node %d (degree %d)\n",
		g.NumNodes(), g.NumEdges(), vip, g.Degree(vip))

	// The VIP's three closest ties are the sensitive targets.
	nbrs := g.Neighbors(vip)
	sort.Slice(nbrs, func(i, j int) bool { return g.Degree(nbrs[i]) > g.Degree(nbrs[j]) })
	var targets []graph.Edge
	for _, w := range nbrs[:3] {
		targets = append(targets, graph.NewEdge(vip, w))
	}
	fmt.Printf("sensitive ties: %v\n", targets)

	session, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		log.Fatal(err)
	}

	// --- Attack on the naive release (targets merely hidden) -------------
	naive := session.Problem().G
	fmt.Println("\nattack on naive release (targets deleted, nothing else):")
	attack(naive, targets, rng)

	// --- TPP defense ------------------------------------------------------
	// A deadline-bounded run: a real protection service never lets one
	// request hold a worker forever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	kstar := len(res.Protectors)
	fmt.Printf("\nTPP defense: k* = %d protector deletions (%.2f%% of all edges)\n",
		kstar, 100*float64(kstar)/float64(g.NumEdges()))

	released := session.Release(res)
	fmt.Println("attack on TPP-protected release:")
	attack(released, targets, rng)
}

// attack scores the hidden targets against 500 random non-edges under
// every triangle-based index and reports the best (lowest) rank any
// predictor achieves per target.
func attack(released *graph.Graph, targets []graph.Edge, rng *rand.Rand) {
	pool := linkpred.SampleNonEdges(released, 500, targets, rng)
	for _, kind := range []linkpred.IndexKind{
		linkpred.CommonNeighbors, linkpred.AdamicAdar, linkpred.ResourceAllocation,
	} {
		reports := linkpred.RankTargets(released, kind, targets, pool)
		worstRank := 0
		bestRank := reports[0].Rank
		for _, r := range reports {
			if r.Rank > worstRank {
				worstRank = r.Rank
			}
			if r.Rank < bestRank {
				bestRank = r.Rank
			}
		}
		auc := linkpred.AUC(released, kind, targets, pool)
		fmt.Printf("  %-20s target ranks %d–%d of %d candidates, AUC %.3f\n",
			kind, bestRank, worstRank, len(pool)+1, auc)
	}
}

func mostConnected(g *graph.Graph) graph.NodeID {
	best := graph.NodeID(0)
	for v := 1; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(best) {
			best = graph.NodeID(v)
		}
	}
	return best
}
