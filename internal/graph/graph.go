// Package graph provides the undirected simple-graph substrate used by the
// TPP (target privacy preserving) library.
//
// The representation is tuned for the access patterns of motif-based link
// prediction and greedy protector selection: adjacency is stored as sorted
// neighbor slices — dense, cache-friendly, binary-search edge tests,
// merge-join set intersections, and fully deterministic iteration orders so
// that greedy algorithms are reproducible run to run. The graph stays fully
// mutable (in-place sorted insert/delete with the slack amortized by slice
// growth), which is what the dynamic subsystem's delta streams rely on.
//
// Nodes are dense integer IDs in [0, NumNodes). Edges are canonicalised so
// that Edge.U < Edge.V always holds; the zero Edge is invalid (a self loop).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a vertex. Node IDs are dense: a graph with n nodes uses
// IDs 0..n-1.
type NodeID = int32

// NoNode is the sentinel for "no node": RemoveNode-style compactions use it
// in their remaps to mark IDs that left the graph.
const NoNode NodeID = -1

// Edge is an undirected edge with canonical ordering U < V.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the canonical form of the edge {u, v}.
// It panics if u == v: self loops are not representable in a simple graph.
func NewEdge(u, v NodeID) Edge {
	switch {
	case u < v:
		return Edge{u, v}
	case v < u:
		return Edge{v, u}
	default:
		panic(fmt.Sprintf("graph: self loop (%d,%d) is not a valid edge", u, v))
	}
}

// Canonical reports whether e is already in canonical form (U < V).
func (e Edge) Canonical() bool { return e.U < e.V }

// Has reports whether n is an endpoint of e.
func (e Edge) Has(n NodeID) bool { return e.U == n || e.V == n }

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }

// Less orders edges lexicographically; it defines the deterministic edge
// iteration order used throughout the library.
func (e Edge) Less(o Edge) bool {
	if e.U != o.U {
		return e.U < o.U
	}
	return e.V < o.V
}

// SortEdges sorts a slice of edges into the canonical lexicographic order.
func SortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool { return es[i].Less(es[j]) })
}

// PackEdge encodes a canonical edge as a uint64 whose numeric order equals
// Edge.Less order, so sorting packed keys is sorting edges. e must be
// canonical (U < V). This is the one shared encoding behind the interner,
// the motif index's universe sort and link-prediction candidate dedup.
func PackEdge(e Edge) uint64 {
	return uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
}

// UnpackEdge inverts PackEdge.
func UnpackEdge(p uint64) Edge {
	return Edge{U: NodeID(p >> 32), V: NodeID(uint32(p))}
}

// Graph is a mutable undirected simple graph over dense node IDs.
//
// Adjacency is one sorted []NodeID slice per node. Edge insertion and
// deletion shift within the slice (O(deg) worst case) but reuse its
// capacity, so churny workloads settle into allocation-free mutation;
// lookups are binary searches and set intersections are merge-joins over
// the sorted rows.
//
// The zero value is an empty graph with no nodes; use New to pre-size.
// Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	adj   [][]NodeID // per node: neighbors sorted ascending
	edges int
	// rowCap is Σ cap(row) over adj, kept current by setRow so that
	// MemFootprint is O(1). Every write of a row goes through setRow.
	rowCap int
}

// New returns an empty graph with n nodes (IDs 0..n-1) and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]NodeID, n)}
}

// FromEdges returns a graph with n nodes and the given edges, built in
// one pass instead of len(edges) sorted inserts: it counts degrees, fills
// one backing array with every endpoint, then sorts and dedups each row.
// Edges may be in either orientation and may repeat; a repeat collapses
// exactly as a second AddEdge would. Self loops and out-of-range nodes
// panic, as with AddEdge.
//
// Each row is capped at its own span of the backing array (three-index
// slice), so a later AddEdge into row u reallocates that row and never
// writes into row u+1. The span a duplicate left unused is kept as the
// row's insert slack and counted by MemFootprint.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	// end[u] counts u's endpoints, then becomes the start of u's span,
	// then (after the fill) its end.
	end := make([]int, n)
	for _, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self loop (%d,%d) is not a valid edge", e.U, e.V))
		}
		g.valid(e.U)
		g.valid(e.V)
		end[e.U]++
		end[e.V]++
	}
	off := 0
	for u, d := range end {
		end[u] = off
		off += d
	}
	back := make([]NodeID, off)
	for _, e := range edges {
		back[end[e.U]] = e.V
		end[e.U]++
		back[end[e.V]] = e.U
		end[e.V]++
	}
	start := 0
	for u, stop := range end {
		row := back[start:stop:stop]
		slices.Sort(row)
		row = slices.Compact(row) // keeps the span as capacity
		g.adj[u] = row
		g.edges += len(row)
		start = stop
	}
	g.edges /= 2
	g.rowCap = len(back)
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// RemoveNode deletes node n together with its incident edges and shrinks
// NumNodes by one. To keep the ID space dense, the node with the highest ID
// is renumbered to n (swap-with-last compaction); RemoveNode returns the
// previous ID of the node now occupying n, which is n itself exactly when n
// already was the highest ID and nothing moved. Every other node keeps its
// ID, so callers holding node or edge references only have to rename that
// one node.
//
// ID-stability contract for view holders: RemoveNode invalidates every
// outstanding NeighborsView (rows move, shrink and are rewritten in place,
// like any mutation), and it is the one mutation that renames edges —
// edges incident to the moved node now spell its new ID n, re-sorted into
// the rows, so Edges/EachEdge keep yielding canonical lexicographic order
// over the new ID space. RemoveNodes applies a batch and hands back the
// whole renaming as a remap.
func (g *Graph) RemoveNode(n NodeID) NodeID {
	g.valid(n)
	// Strip n's incident edges.
	for _, w := range g.adj[n] {
		i, _ := slices.BinarySearch(g.adj[w], n)
		g.setRow(w, slices.Delete(g.adj[w], i, i+1))
	}
	g.edges -= len(g.adj[n])
	g.setRow(n, nil)
	last := NodeID(len(g.adj) - 1)
	if n != last {
		// Renumber last → n: adopt its row and rewrite its mentions. The
		// row cannot contain n (n's edges are gone), so it stays valid.
		row := g.adj[last]
		g.setRow(last, nil)
		g.setRow(n, row)
		for _, w := range row {
			i, _ := slices.BinarySearch(g.adj[w], last)
			r := slices.Delete(g.adj[w], i, i+1)
			j, _ := slices.BinarySearch(r, n)
			g.setRow(w, slices.Insert(r, j, n))
		}
	}
	g.adj = g.adj[:last]
	return last
}

// RemoveNodes deletes every node in nodes (which must be sorted ascending,
// duplicate-free and in range) with their incident edges, and returns the
// composite renaming as a remap indexed by pre-removal ID: remap[old] is
// the node's new ID, or NoNode for the removed nodes. A nil remap means
// nodes was empty and nothing changed.
//
// Removals are processed in descending ID order, so each RemoveNode's
// swap-with-last renumbering can never touch a node still pending removal —
// the IDs in nodes stay valid throughout the batch.
func (g *Graph) RemoveNodes(nodes []NodeID) []NodeID {
	if len(nodes) == 0 {
		return nil
	}
	n := len(g.adj)
	for i, x := range nodes {
		g.valid(x)
		if i > 0 && nodes[i-1] >= x {
			panic(fmt.Sprintf("graph: RemoveNodes list not sorted/unique at %d: %d >= %d", i, nodes[i-1], x))
		}
	}
	// Track only the touched slots sparsely: each removal moves at most one
	// node (the then-last) down into the freed slot, so at most len(nodes)
	// moves happen in total — the dense remap needs one identity fill plus
	// len(nodes) corrections, never an O(n) slot simulation.
	type move struct{ slot, orig NodeID }
	moved := make([]move, 0, len(nodes))
	// lookup answers "which pre-removal node occupies this slot right now":
	// a previous move's target, or the identity.
	lookup := func(slot NodeID) NodeID {
		for i := len(moved) - 1; i >= 0; i-- {
			if moved[i].slot == slot {
				return moved[i].orig
			}
		}
		return slot
	}
	size := NodeID(n)
	for i := len(nodes) - 1; i >= 0; i-- {
		x := nodes[i] // still at slot x: lower slots never move (see above)
		g.RemoveNode(x)
		size--
		if x != size {
			moved = append(moved, move{slot: x, orig: lookup(size)})
		}
	}
	remap := make([]NodeID, n)
	for i := range remap {
		remap[i] = NodeID(i)
	}
	// Later moves supersede earlier ones for the same node, so apply them
	// in order; removals last (a removed node is never a move's origin).
	for _, m := range moved {
		remap[m.orig] = m.slot
	}
	for _, x := range nodes {
		remap[x] = NoNode
	}
	return remap
}

// setRow stores row as n's adjacency and keeps rowCap current.
func (g *Graph) setRow(n NodeID, row []NodeID) {
	g.rowCap += cap(row) - cap(g.adj[n])
	g.adj[n] = row
}

// valid panics unless n is a node of g.
func (g *Graph) valid(n NodeID) {
	if n < 0 || int(n) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", n, len(g.adj)))
	}
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// was newly added (false if it already existed). Self loops panic.
// Insertion keeps both neighbor rows sorted; any outstanding NeighborsView
// of an endpoint is invalidated.
func (g *Graph) AddEdge(u, v NodeID) bool {
	e := NewEdge(u, v) // canonicalise + reject self loops
	g.valid(e.U)
	g.valid(e.V)
	i, found := slices.BinarySearch(g.adj[e.U], e.V)
	if found {
		return false
	}
	g.setRow(e.U, slices.Insert(g.adj[e.U], i, e.V))
	j, _ := slices.BinarySearch(g.adj[e.V], e.U)
	g.setRow(e.V, slices.Insert(g.adj[e.V], j, e.U))
	g.edges++
	return true
}

// AddEdgeE is AddEdge taking an Edge value.
func (g *Graph) AddEdgeE(e Edge) bool { return g.AddEdge(e.U, e.V) }

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it
// existed. The rows keep their capacity as slack for future insertions; any
// outstanding NeighborsView of an endpoint is invalidated.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	e := NewEdge(u, v)
	g.valid(e.U)
	g.valid(e.V)
	i, found := slices.BinarySearch(g.adj[e.U], e.V)
	if !found {
		return false
	}
	g.setRow(e.U, slices.Delete(g.adj[e.U], i, i+1))
	j, _ := slices.BinarySearch(g.adj[e.V], e.U)
	g.setRow(e.V, slices.Delete(g.adj[e.V], j, j+1))
	g.edges--
	return true
}

// RemoveEdgeE is RemoveEdge taking an Edge value.
func (g *Graph) RemoveEdgeE(e Edge) bool { return g.RemoveEdge(e.U, e.V) }

// RemoveEdges removes every edge in es, ignoring edges already absent.
// It returns the number of edges actually removed.
func (g *Graph) RemoveEdges(es []Edge) int {
	n := 0
	for _, e := range es {
		if g.RemoveEdgeE(e) {
			n++
		}
	}
	return n
}

// HasEdge reports whether the edge {u, v} exists. HasEdge(n, n) is false.
// The test is a binary search in the lower-degree endpoint's row.
//
//tpp:hotpath
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v || u < 0 || v < 0 || int(u) >= len(g.adj) || int(v) >= len(g.adj) {
		return false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// HasEdgeE is HasEdge taking an Edge value.
func (g *Graph) HasEdgeE(e Edge) bool { return g.HasEdge(e.U, e.V) }

// Degree returns the degree of node n.
func (g *Graph) Degree(n NodeID) int {
	g.valid(n)
	return len(g.adj[n])
}

// Neighbors returns the neighbors of n as a freshly allocated slice sorted
// ascending. The copy stays valid across later mutations; prefer
// NeighborsView in hot paths that do not mutate the graph while holding it.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	g.valid(n)
	out := make([]NodeID, len(g.adj[n]))
	copy(out, g.adj[n])
	return out
}

// NeighborsView returns the neighbors of n sorted ascending as a view of
// the graph's internal storage — no allocation, no copy.
//
// The view is invalidated by ANY subsequent mutation of the graph
// (AddEdge/RemoveEdge/AddNode, or anything built on them such as
// ApplyToGraph): a mutation may shift, grow or reallocate the row, so a
// held view can observe missing, duplicated or stale neighbors. Callers
// must not mutate the returned slice, and must re-fetch it after mutating
// the graph; use Neighbors for a stable snapshot.
//
//tpp:hotpath
func (g *Graph) NeighborsView(n NodeID) []NodeID {
	g.valid(n)
	return g.adj[n]
}

// EachNeighbor calls fn for every neighbor of n in ascending order.
// Iteration stops early if fn returns false. The graph must not be mutated
// during iteration.
//
//tpp:hotpath
func (g *Graph) EachNeighbor(n NodeID, fn func(w NodeID) bool) {
	g.valid(n)
	for _, w := range g.adj[n] {
		if !fn(w) {
			return
		}
	}
}

// AppendCommonNeighbors appends Γ(u) ∩ Γ(v) to buf in ascending order and
// returns the extended slice — the allocation-free form of CommonNeighbors
// for callers with a reusable scratch buffer. The intersection is a
// merge-join of the two sorted rows, switching to binary probes of the
// longer row when the degrees are heavily skewed (hub nodes).
//
//tpp:hotpath
func (g *Graph) AppendCommonNeighbors(u, v NodeID, buf []NodeID) []NodeID {
	g.valid(u)
	g.valid(v)
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return buf
	}
	if len(b) >= 16*len(a) {
		for _, w := range a {
			if _, found := slices.BinarySearch(b, w); found {
				buf = append(buf, w)
			}
		}
		return buf
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x == y:
			buf = append(buf, x)
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return buf
}

// EachCommonNeighbor calls fn for every w ∈ Γ(u) ∩ Γ(v) in ascending
// order without allocating, using the same skew-adaptive merge-join as
// AppendCommonNeighbors — the form for callers that fold over the
// intersection (e.g. Adamic–Adar/Resource-Allocation scoring) instead of
// materialising it.
//
//tpp:hotpath
func (g *Graph) EachCommonNeighbor(u, v NodeID, fn func(w NodeID)) {
	g.valid(u)
	g.valid(v)
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return
	}
	if len(b) >= 16*len(a) {
		for _, w := range a {
			if _, found := slices.BinarySearch(b, w); found {
				fn(w)
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x == y:
			fn(x)
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
}

// CommonNeighbors returns Γ(u) ∩ Γ(v) sorted ascending in a fresh slice
// (nil when the intersection is empty).
func (g *Graph) CommonNeighbors(u, v NodeID) []NodeID {
	return g.AppendCommonNeighbors(u, v, nil)
}

// CommonNeighborCount returns |Γ(u) ∩ Γ(v)| without allocating.
//
//tpp:hotpath
func (g *Graph) CommonNeighborCount(u, v NodeID) int {
	g.valid(u)
	g.valid(v)
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= 16*len(a) {
		for _, w := range a {
			if _, found := slices.BinarySearch(b, w); found {
				n++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x == y:
			n++
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return n
}

// Edges returns every edge in canonical lexicographic order. With sorted
// rows this is a single sweep — no sort.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, Edge{NodeID(u), v})
			}
		}
	}
	return out
}

// EachEdge calls fn for every edge in canonical lexicographic order;
// iteration stops early if fn returns false. The graph must not be mutated
// during iteration.
func (g *Graph) EachEdge(fn func(e Edge) bool) {
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				if !fn(Edge{NodeID(u), v}) {
					return
				}
			}
		}
	}
}

// Clone returns a deep copy of g. Each neighbor row is copied with exact
// capacity in one memmove — cloning is on the request path (NewProblem's
// phase-1 copy, Release), so this matters.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]NodeID, len(g.adj)), edges: g.edges}
	for i, row := range g.adj {
		if len(row) == 0 {
			continue
		}
		cp := make([]NodeID, len(row))
		copy(cp, row)
		c.setRow(NodeID(i), cp)
	}
	return c
}

// Degrees returns the degree of every node, indexed by NodeID.
func (g *Graph) Degrees() []int {
	out := make([]int, len(g.adj))
	for i, row := range g.adj {
		out[i] = len(row)
	}
	return out
}

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, row := range g.adj {
		if len(row) > max {
			max = len(row)
		}
	}
	return max
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// MemFootprint returns the approximate resident byte footprint of the
// graph: the adjacency spine plus every row's full capacity (mutation slack
// included — that memory is held either way). The estimate feeds the
// session tier's memory budget; it deliberately counts reachable heap
// bytes, not Go object headers, so it slightly undercounts true RSS. It
// is O(1): the row capacities are a running sum that mutations maintain.
func (g *Graph) MemFootprint() int64 {
	const (
		sliceHeader = 24 // unsafe.Sizeof([]NodeID{}) on 64-bit
		nodeIDBytes = 4  // NodeID is int32
	)
	return int64(sliceHeader) + int64(cap(g.adj))*sliceHeader + int64(g.rowCap)*nodeIDBytes
}
