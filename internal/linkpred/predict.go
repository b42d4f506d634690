package linkpred

import (
	"slices"
	"sort"

	"repro/internal/graph"
)

// The adversary's forward tool: enumerate candidate missing links and rank
// them. Candidate generation follows the standard 2-hop heuristic — for
// every triangle-family index a pair without common neighbours scores 0,
// so only pairs at distance 2 can rank at all. (For Katz the 2-hop set is
// still where all the mass concentrates at small β.)

// Prediction is one scored candidate link.
type Prediction struct {
	Pair  graph.Edge
	Score float64
}

// CandidatePairs returns every non-adjacent node pair with at least one
// common neighbour, in canonical order. This is the complete support of
// all triangle-based indices.
//
// Candidates are collected as packed uint64 keys and deduplicated with one
// sort + compact instead of a hash set: the packed order equals canonical
// edge order, so the sweep needs no separate SortEdges pass and no hashing.
func CandidatePairs(g *graph.Graph) []graph.Edge {
	var packed []uint64
	n := g.NumNodes()
	for w := 0; w < n; w++ {
		nbrs := g.NeighborsView(graph.NodeID(w))
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				u, v := nbrs[i], nbrs[j] // u < v: rows are sorted ascending
				if g.HasEdge(u, v) {
					continue
				}
				packed = append(packed, graph.PackEdge(graph.Edge{U: u, V: v}))
			}
		}
	}
	slices.Sort(packed)
	packed = slices.Compact(packed)
	out := make([]graph.Edge, len(packed))
	for i, p := range packed {
		out[i] = graph.UnpackEdge(p)
	}
	return out
}

// TopPredictions scores every candidate pair under the index and returns
// the limit highest-scoring predictions (all of them when limit ≤ 0),
// ordered by descending score with canonical pair order breaking ties —
// the adversary's ranked guess list.
func TopPredictions(g *graph.Graph, kind IndexKind, limit int) []Prediction {
	cands := CandidatePairs(g)
	preds := make([]Prediction, 0, len(cands))
	for _, e := range cands {
		if s := Score(g, kind, e.U, e.V); s > 0 {
			preds = append(preds, Prediction{Pair: e, Score: s})
		}
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Score != preds[j].Score {
			return preds[i].Score > preds[j].Score
		}
		return preds[i].Pair.Less(preds[j].Pair)
	})
	if limit > 0 && len(preds) > limit {
		preds = preds[:limit]
	}
	return preds
}
