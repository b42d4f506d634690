// Package metrics implements the graph-utility metrics of the TPP paper's
// Table II — average path length, clustering coefficient, assortativity,
// average core number, the second-largest Laplacian eigenvalue, and
// modularity — plus the utility-loss-ratio comparison used by Tables
// III–V. Everything is stdlib-only: the eigensolver is a power iteration
// with Hotelling deflation over the implicit sparse Laplacian, and
// communities for modularity come from deterministic label propagation.
package metrics

import "repro/internal/graph"

// AveragePathLength returns l: the mean shortest-path distance over all
// connected node pairs, via exact all-pairs BFS. Cost O(n·m), so large
// graphs skip it (the paper likewise skips l on DBLP).
func AveragePathLength(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]graph.NodeID, 0, n)
	var sum float64
	var pairs int64
	for s := 0; s < n; s++ {
		g.BFSDistancesInto(graph.NodeID(s), dist, queue)
		for v := s + 1; v < n; v++ {
			if dist[v] > 0 {
				sum += float64(dist[v])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// TriangleCount returns the number of triangles incident to node v.
func TriangleCount(g *graph.Graph, v graph.NodeID) int {
	nbrs := g.NeighborsView(v) // read-only scan: the borrowed row is safe
	count := 0
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				count++
			}
		}
	}
	return count
}

// ClusteringCoefficient returns clust: the average local clustering
// coefficient over all nodes (nodes of degree < 2 contribute 0, the
// convention the paper's formula implies).
func ClusteringCoefficient(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		if d < 2 {
			continue
		}
		tri := TriangleCount(g, graph.NodeID(v))
		sum += 2 * float64(tri) / float64(d*(d-1))
	}
	return sum / float64(n)
}

// Assortativity returns r: the Pearson degree correlation over edges
// (Newman 2002). Returns 0 for graphs where the variance vanishes (e.g.
// regular graphs), matching the usual convention.
func Assortativity(g *graph.Graph) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	var sumJK, sumHalf, sumHalfSq float64
	g.EachEdge(func(e graph.Edge) bool {
		j := float64(g.Degree(e.U))
		k := float64(g.Degree(e.V))
		sumJK += j * k
		sumHalf += (j + k) / 2
		sumHalfSq += (j*j + k*k) / 2
		return true
	})
	num := sumJK/m - (sumHalf/m)*(sumHalf/m)
	den := sumHalfSq/m - (sumHalf/m)*(sumHalf/m)
	if den == 0 {
		return 0
	}
	return num / den
}

// CoreNumbers returns the k-shell (core) number of every node via the
// standard O(m) peeling algorithm of Batagelj & Zaveršnik.
func CoreNumbers(g *graph.Graph) []int {
	n := g.NumNodes()
	deg := g.Degrees()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bucket sort nodes by degree.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	pos := make([]int, n)
	vert := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = graph.NodeID(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		g.EachNeighbor(v, func(u graph.NodeID) bool {
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
			return true
		})
	}
	return core
}

// AverageCoreNumber returns cn: the mean core number over all nodes.
func AverageCoreNumber(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	sum := 0
	for _, c := range CoreNumbers(g) {
		sum += c
	}
	return float64(sum) / float64(n)
}
