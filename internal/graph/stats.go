package graph

// Descriptive statistics used by dataset validation, experiment reports
// and the example programs.

import (
	"fmt"
	"math"
	"sort"
)

// Density returns |E| / (|V| choose 2), the filled fraction of the
// adjacency matrix (0 for graphs with fewer than two nodes).
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(n) * float64(n-1) / 2)
}

// MeanDegree returns 2|E|/|V| (0 for empty graphs).
func (g *Graph) MeanDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.NumNodes())
}

// DegreeQuantile returns the q-quantile (q in [0,1]) of the degree
// distribution, using the nearest-rank method.
func (g *Graph) DegreeQuantile(q float64) int {
	if g.NumNodes() == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	degs := g.Degrees()
	sort.Ints(degs)
	rank := int(math.Ceil(q*float64(len(degs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return degs[rank]
}

// ApproxDiameter lower-bounds the diameter by the double-sweep heuristic:
// BFS from src, then BFS again from the farthest node found. Exact on
// trees; a tight lower bound in practice on social graphs. Unreachable
// nodes are ignored; returns 0 for graphs without edges.
func (g *Graph) ApproxDiameter(src NodeID) int {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return 0
	}
	far := func(s NodeID) (NodeID, int32) {
		dist := g.BFSDistances(s)
		best, bestD := s, int32(0)
		for v, d := range dist {
			if d > bestD {
				best, bestD = NodeID(v), d
			}
		}
		return best, bestD
	}
	mid, _ := far(src)
	_, d := far(mid)
	return int(d)
}

// Stats bundles the summary numbers reported for datasets.
type Stats struct {
	Nodes, Edges   int
	MeanDegree     float64
	MaxDegree      int
	MedianDegree   int
	Density        float64
	Components     int
	GiantFraction  float64
	ApproxDiameter int
}

// Summary computes the full Stats bundle (cost: a few BFS sweeps).
func (g *Graph) Summary() Stats {
	s := Stats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		MeanDegree: g.MeanDegree(),
		MaxDegree:  g.MaxDegree(),
		Density:    g.Density(),
	}
	if g.NumNodes() == 0 {
		return s
	}
	s.MedianDegree = g.DegreeQuantile(0.5)
	_, s.Components = g.ConnectedComponents()
	giant := g.GiantComponentNodes()
	s.GiantFraction = float64(len(giant)) / float64(g.NumNodes())
	if len(giant) > 0 {
		s.ApproxDiameter = g.ApproxDiameter(giant[0])
	}
	return s
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"n=%d m=%d <k>=%.2f kmax=%d kmed=%d density=%.4g components=%d giant=%.1f%% diam≥%d",
		s.Nodes, s.Edges, s.MeanDegree, s.MaxDegree, s.MedianDegree,
		s.Density, s.Components, 100*s.GiantFraction, s.ApproxDiameter)
}
