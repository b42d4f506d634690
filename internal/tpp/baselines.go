package tpp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// RandomDeletion is the RD baseline (paper Sec. VI-A): delete k links chosen
// uniformly at random from the phase-1 edge set, with no similarity
// computation at all.
func RandomDeletion(p *Problem, k int, rng *rand.Rand) (*Result, error) {
	return randomDeletion(p, k, rng, runEnv{})
}

func randomDeletion(p *Problem, k int, rng *rand.Rand, env runEnv) (*Result, error) {
	// RD selects from the full phase-1 edge set; the index exists only to
	// report the similarity trace (RD computes no gains — that is its
	// point), so the clock starts at the actual selection.
	return randomBaseline(p, k, rng, env, "RD", func(p *Problem, _ *motif.Index) []graph.Edge {
		return p.G.Edges()
	})
}

// RandomDeletionFromTargets is the RDT baseline: delete k links chosen
// uniformly at random from the edges that participate in target subgraphs
// (the W-edge universe), again with no gain computation.
func RandomDeletionFromTargets(p *Problem, k int, rng *rand.Rand) (*Result, error) {
	return randomDeletionFromTargets(p, k, rng, runEnv{})
}

func randomDeletionFromTargets(p *Problem, k int, rng *rand.Rand, env runEnv) (*Result, error) {
	return randomBaseline(p, k, rng, env, "RDT", func(_ *Problem, ix *motif.Index) []graph.Edge {
		return ix.AllTouchedEdges()
	})
}

func randomBaseline(p *Problem, k int, rng *rand.Rand, env runEnv, name string,
	universe func(*Problem, *motif.Index) []graph.Edge) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeBudget, k)
	}
	ix, err := env.index(p)
	if err != nil {
		return nil, err
	}
	edges := universe(p, ix)
	start := time.Now()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	res := newResult(name, ix.TotalSimilarity(), k)
	for _, e := range edges[:k] {
		if err := env.err(); err != nil {
			return nil, err
		}
		ix.DeleteEdge(e)
		res.record(e, ix.TotalSimilarity(), time.Since(start))
		env.onStep(res)
	}
	res.PerTargetFinal = ix.Similarities()
	res.Elapsed = time.Since(start)
	return res, nil
}
