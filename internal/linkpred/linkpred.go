// Package linkpred implements the adversarial link-prediction methods the
// TPP threat model defends against (paper Sec. III-B and VI-D): the eight
// classical triangle-based similarity indices (Jaccard, Salton, Sørensen,
// Hub Promoted, Hub Depressed, Leicht–Holme–Newman, Adamic–Adar, Resource
// Allocation), plain common neighbours, and the Katz index the paper lists
// as future work.
//
// The package also provides the attack-evaluation harness: given a released
// (privacy-preserved) graph and the hidden target links, it measures how
// well each index re-identifies the targets among candidate non-edges
// (scores, ranks, and AUC). On a fully protected graph every triangle-based
// index scores every target exactly 0 (paper Sec. VI-D).
package linkpred

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// IndexKind identifies a similarity index.
type IndexKind int

const (
	CommonNeighbors IndexKind = iota
	Jaccard
	Salton
	Sorensen
	HubPromoted
	HubDepressed
	LeichtHolmeNewman
	AdamicAdar
	ResourceAllocation
	Katz
)

// TriangleIndices lists the eight triangle-based indices of paper Sec. VI-D
// plus plain common neighbours; all of them are exactly zero for node pairs
// with no common neighbour.
var TriangleIndices = []IndexKind{
	CommonNeighbors, Jaccard, Salton, Sorensen, HubPromoted,
	HubDepressed, LeichtHolmeNewman, AdamicAdar, ResourceAllocation,
}

// AllIndices is TriangleIndices plus Katz.
var AllIndices = append(append([]IndexKind(nil), TriangleIndices...), Katz)

// String returns the conventional index name.
func (k IndexKind) String() string {
	switch k {
	case CommonNeighbors:
		return "CommonNeighbors"
	case Jaccard:
		return "Jaccard"
	case Salton:
		return "Salton"
	case Sorensen:
		return "Sorensen"
	case HubPromoted:
		return "HubPromoted"
	case HubDepressed:
		return "HubDepressed"
	case LeichtHolmeNewman:
		return "LeichtHolmeNewman"
	case AdamicAdar:
		return "AdamicAdar"
	case ResourceAllocation:
		return "ResourceAllocation"
	case Katz:
		return "Katz"
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// Score computes the similarity score of node pair (u, v) under the index.
// Higher scores mean the adversary considers the link more likely. For Katz
// it uses the default attenuation and path cutoff of KatzScore.
//
// Every triangle-based index is evaluated as one merge-join walk over the
// two sorted neighbor rows — common neighbors are never materialised, so
// scoring allocates nothing (Katz excepted: it carries walk-count vectors).
func Score(g *graph.Graph, kind IndexKind, u, v graph.NodeID) float64 {
	switch kind {
	case Katz:
		return KatzScore(g, u, v, DefaultKatzBeta, DefaultKatzMaxLen)
	case CommonNeighbors:
		return float64(g.CommonNeighborCount(u, v))
	case AdamicAdar:
		// Σ_{w ∈ Γ(u)∩Γ(v)} 1/log deg(w), accumulated during the join.
		s := 0.0
		g.EachCommonNeighbor(u, v, func(w graph.NodeID) {
			if d := float64(g.Degree(w)); d > 1 {
				s += 1 / math.Log(d)
			}
		})
		return s
	case ResourceAllocation:
		// Σ_{w ∈ Γ(u)∩Γ(v)} 1/deg(w), accumulated during the join.
		s := 0.0
		g.EachCommonNeighbor(u, v, func(w graph.NodeID) {
			if d := float64(g.Degree(w)); d > 0 {
				s += 1 / d
			}
		})
		return s
	}

	du, dv := float64(g.Degree(u)), float64(g.Degree(v))
	ncn := float64(g.CommonNeighborCount(u, v))
	switch kind {
	case Jaccard:
		union := du + dv - ncn
		if union == 0 {
			return 0
		}
		return ncn / union
	case Salton:
		if du == 0 || dv == 0 {
			return 0
		}
		return ncn / math.Sqrt(du*dv)
	case Sorensen:
		if du+dv == 0 {
			return 0
		}
		return 2 * ncn / (du + dv)
	case HubPromoted:
		m := math.Min(du, dv)
		if m == 0 {
			return 0
		}
		return ncn / m
	case HubDepressed:
		m := math.Max(du, dv)
		if m == 0 {
			return 0
		}
		return ncn / m
	case LeichtHolmeNewman:
		if du == 0 || dv == 0 {
			return 0
		}
		return ncn / (du * dv)
	}
	panic(fmt.Sprintf("linkpred: unknown index %v", kind))
}

// Katz parameters: β must satisfy β < 1/λ_max for the series to converge;
// the truncated sum up to DefaultKatzMaxLen is the standard practical form.
const (
	DefaultKatzBeta   = 0.005
	DefaultKatzMaxLen = 4
)

// KatzScore computes the truncated Katz index Σ_{l=2..maxLen} β^l ·
// (#paths of length l between u and v), via iterated sparse matrix-vector
// products from u. Length-1 paths (the direct edge) are excluded because
// the adversary scores *missing* links.
func KatzScore(g *graph.Graph, u, v graph.NodeID, beta float64, maxLen int) float64 {
	return NewKatzWalks(g.NumNodes()).Score(g, u, v, beta, maxLen)
}

// KatzWalks holds the two walk-count vectors one truncated-Katz evaluation
// needs. A caller scoring many pairs on one node universe keeps one and
// reuses it, so no evaluation allocates.
type KatzWalks struct {
	cur, next []float64
}

// NewKatzWalks returns walk vectors for a graph of n nodes.
func NewKatzWalks(n int) *KatzWalks {
	return &KatzWalks{cur: make([]float64, n), next: make([]float64, n)}
}

// Score is KatzScore evaluated on w, which must have been made for g's
// node count.
func (w *KatzWalks) Score(g *graph.Graph, u, v graph.NodeID, beta float64, maxLen int) float64 {
	n := g.NumNodes()
	cur, next := w.cur, w.next
	clear(cur)
	cur[u] = 1
	score := 0.0
	bl := 1.0
	for l := 1; l <= maxLen; l++ {
		bl *= beta
		clear(next)
		for i := 0; i < n; i++ {
			if cur[i] == 0 {
				continue
			}
			c := cur[i]
			for _, x := range g.NeighborsView(graph.NodeID(i)) {
				next[x] += c
			}
		}
		cur, next = next, cur
		if l >= 2 {
			score += bl * cur[v]
		}
	}
	w.cur, w.next = cur, next
	return score
}
