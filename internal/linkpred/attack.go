package linkpred

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Attack evaluation: the adversary holds the released graph and scores node
// pairs with a similarity index, hoping the hidden targets rank high. These
// helpers quantify that risk.

// TargetScores returns the index score of every target pair on the released
// graph, in target order.
func TargetScores(released *graph.Graph, kind IndexKind, targets []graph.Edge) []float64 {
	out := make([]float64, len(targets))
	for i, t := range targets {
		out[i] = Score(released, kind, t.U, t.V)
	}
	return out
}

// SampleNonEdges draws count node pairs uniformly from the non-edges of g,
// excluding the given pairs (the hidden targets, which are non-edges of the
// released graph but must not be drawn as negatives).
func SampleNonEdges(g *graph.Graph, count int, exclude []graph.Edge, rng *rand.Rand) []graph.Edge {
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	ex := make(map[graph.Edge]bool, len(exclude))
	for _, e := range exclude {
		ex[e] = true
	}
	seen := make(map[graph.Edge]bool, count)
	out := make([]graph.Edge, 0, count)
	for len(out) < count {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if g.HasEdgeE(e) || ex[e] || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// AUC estimates the area under the ROC curve of the adversary's ranking:
// the probability that a random target outscores a random non-edge, with
// ties counted half (the standard link-prediction AUC of Lü & Zhou).
// An AUC of 0.5 means the adversary does no better than chance.
func AUC(released *graph.Graph, kind IndexKind, targets, nonEdges []graph.Edge) float64 {
	if len(targets) == 0 || len(nonEdges) == 0 {
		return 0.5
	}
	ts := TargetScores(released, kind, targets)
	ns := TargetScores(released, kind, nonEdges)
	wins, ties := 0, 0
	for _, t := range ts {
		for _, x := range ns {
			switch {
			case t > x:
				wins++
			case t == x:
				ties++
			}
		}
	}
	total := len(ts) * len(ns)
	return (float64(wins) + 0.5*float64(ties)) / float64(total)
}

// RankReport describes how one target ranks among a candidate pool under
// one index.
type RankReport struct {
	Target graph.Edge
	Score  float64
	// Rank is the 1-based position of the target when all candidates and
	// the target are sorted by descending score (worst case for the
	// defender: ties rank the target highest among equals).
	Rank int
	// PoolSize is 1 + len(candidates).
	PoolSize int
}

// RankTargets ranks every target against the candidate non-edge pool.
func RankTargets(released *graph.Graph, kind IndexKind, targets, pool []graph.Edge) []RankReport {
	poolScores := TargetScores(released, kind, pool)
	sort.Float64s(poolScores)
	out := make([]RankReport, len(targets))
	for i, t := range targets {
		s := Score(released, kind, t.U, t.V)
		// Candidates with a strictly higher score outrank the target; ties
		// rank the target first among equals (defender's worst case).
		firstGreater := sort.Search(len(poolScores), func(j int) bool { return poolScores[j] > s })
		higher := len(poolScores) - firstGreater
		out[i] = RankReport{Target: t, Score: s, Rank: higher + 1, PoolSize: len(pool) + 1}
	}
	return out
}

// SummarizeDefense runs every triangle-based index against the released
// graph and returns a human-readable line per index with the max target
// score and AUC versus the sampled non-edge pool.
func SummarizeDefense(released *graph.Graph, targets []graph.Edge, poolSize int, rng *rand.Rand) []string {
	pool := SampleNonEdges(released, poolSize, targets, rng)
	var lines []string
	for _, kind := range TriangleIndices {
		scores := TargetScores(released, kind, targets)
		max := 0.0
		for _, s := range scores {
			if s > max {
				max = s
			}
		}
		auc := AUC(released, kind, targets, pool)
		lines = append(lines, fmt.Sprintf("%-20s max target score %.4f  AUC %.3f", kind, max, auc))
	}
	return lines
}
