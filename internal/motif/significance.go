package motif

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Motif significance profiling (Milo et al., the paper's ref [28] and the
// foundation of its threat model). The TPP defender must choose which
// motif the adversary will exploit; the rational choice is the motif that
// is *over-represented* in the graph relative to a degree-preserving null
// model, because over-represented motifs are the graph's actual building
// principle and hence the best prediction signal. This file counts global
// motif abundance and computes z-scores against a switch-randomized null.

// GlobalCount returns the total number of instances of the pattern's
// *closed* form in the graph — for every edge (u,v), the number of
// completing structures as if (u,v) were a target — divided by nothing:
// each closed subgraph is counted once per closing edge, a consistent
// abundance measure for cross-graph comparison. Cost: one target
// enumeration per edge.
func GlobalCount(g *graph.Graph, pattern Pattern) int {
	total := 0
	g.EachEdge(func(e graph.Edge) bool {
		// Count completions of e in g minus e itself, exactly the
		// similarity an adversary would see if e were hidden.
		g.RemoveEdgeE(e)
		total += Count(g, pattern, e)
		g.AddEdgeE(e)
		return true
	})
	return total
}

// Significance is the z-score profile of one pattern.
type Significance struct {
	Pattern  Pattern
	Observed int
	NullMean float64
	NullStd  float64
	ZScore   float64
}

// Profile computes motif significance for the given patterns against a
// degree-preserving null model: each null sample applies 4·|E| random
// edge switches (the standard Markov-chain randomization) and recounts.
// samples ≥ 2 is required for a standard deviation.
func Profile(g *graph.Graph, patterns []Pattern, samples int, rng *rand.Rand) []Significance {
	if samples < 2 {
		samples = 2
	}
	out := make([]Significance, 0, len(patterns))
	// Pre-generate the null graphs once; reuse across patterns.
	nulls := make([]*graph.Graph, samples)
	for i := range nulls {
		nulls[i] = switchRandomize(g, 4*g.NumEdges(), rng)
	}
	for _, pattern := range patterns {
		obs := GlobalCount(g, pattern)
		var sum, sumSq float64
		for _, ng := range nulls {
			c := float64(GlobalCount(ng, pattern))
			sum += c
			sumSq += c * c
		}
		mean := sum / float64(samples)
		variance := sumSq/float64(samples) - mean*mean
		if variance < 0 {
			variance = 0
		}
		std := math.Sqrt(variance)
		z := 0.0
		if std > 0 {
			z = (float64(obs) - mean) / std
		}
		out = append(out, Significance{
			Pattern:  pattern,
			Observed: obs,
			NullMean: mean,
			NullStd:  std,
			ZScore:   z,
		})
	}
	return out
}

// MostSignificant returns the pattern with the highest z-score — the
// recommended threat model for a given graph. Ties resolve to the earlier
// pattern in the input order.
func MostSignificant(g *graph.Graph, patterns []Pattern, samples int, rng *rand.Rand) Pattern {
	profile := Profile(g, patterns, samples, rng)
	best := profile[0]
	for _, s := range profile[1:] {
		if s.ZScore > best.ZScore {
			best = s
		}
	}
	return best.Pattern
}

// switchRandomize returns a degree-preserving randomization of g by
// attempting the given number of double-edge switches.
func switchRandomize(g *graph.Graph, switches int, rng *rand.Rand) *graph.Graph {
	out := g.Clone()
	edges := out.Edges()
	if len(edges) < 2 {
		return out
	}
	for done, attempts := 0, 0; done < switches && attempts < 16*switches; attempts++ {
		e1 := edges[rng.Intn(len(edges))]
		e2 := edges[rng.Intn(len(edges))]
		a, b, c, d := e1.U, e1.V, e2.U, e2.V
		if a == c || a == d || b == c || b == d {
			continue
		}
		if !out.HasEdge(a, b) || !out.HasEdge(c, d) || out.HasEdge(a, d) || out.HasEdge(c, b) {
			continue
		}
		out.RemoveEdge(a, b)
		out.RemoveEdge(c, d)
		out.AddEdge(a, d)
		out.AddEdge(c, b)
		edges = append(edges, graph.NewEdge(a, d), graph.NewEdge(c, b))
		done++
	}
	return out
}
