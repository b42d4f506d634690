package graph

// This file contains traversal primitives: breadth-first search, connected
// components, and distance computations. They back both the utility metrics
// (average path length) and dataset sanity checks.

// BFSDistances returns the unweighted shortest-path distance from src to
// every node. Unreachable nodes get -1.
func (g *Graph) BFSDistances(src NodeID) []int32 {
	g.valid(src)
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// BFSDistancesInto is BFSDistances writing into a caller-provided buffer to
// avoid per-source allocations in all-pairs sweeps. The buffer must have
// length NumNodes.
func (g *Graph) BFSDistancesInto(src NodeID, dist []int32, queue []NodeID) []NodeID {
	g.valid(src)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// ConnectedComponents returns, for every node, the ID of its component
// (components are numbered 0.. in order of their smallest node) plus the
// number of components.
func (g *Graph) ConnectedComponents() (comp []int32, count int) {
	comp = make([]int32, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	var queue []NodeID
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, NodeID(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.adj[u] {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return comp, count
}

// GiantComponentNodes returns the node set of the largest connected
// component, sorted ascending.
func (g *Graph) GiantComponentNodes() []NodeID {
	comp, count := g.ConnectedComponents()
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, sz := range sizes {
		if sz > sizes[best] {
			best = c
		}
	}
	out := make([]NodeID, 0, sizes[best])
	for n, c := range comp {
		if int(c) == best {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// IsConnected reports whether the graph has exactly one connected component
// covering all nodes (empty graphs and single-node graphs are connected).
func (g *Graph) IsConnected() bool {
	if g.NumNodes() <= 1 {
		return true
	}
	_, count := g.ConnectedComponents()
	return count == 1
}
