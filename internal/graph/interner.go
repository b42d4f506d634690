package graph

import (
	"fmt"
	"slices"
)

// EdgeID is a dense integer id for an edge of a fixed graph snapshot,
// assigned by an Interner. IDs run 0..NumEdges-1 in canonical lexicographic
// edge order, so comparing two EdgeIDs is exactly comparing the edges with
// Edge.Less — heap tie-breaks and sorted iteration by id reproduce the
// library's canonical edge order for free.
type EdgeID int32

// NoEdge is the sentinel returned by Interner.ID for edges the interner
// does not know about.
const NoEdge EdgeID = -1

// Interner is an immutable edge table built once per graph snapshot. It
// bidirectionally maps the snapshot's edges to dense EdgeIDs: every
// per-edge quantity downstream (gains, deletion bits, instance incidence
// lists) becomes a flat slice indexed by EdgeID instead of a map[Edge],
// which is what makes the motif index cache-friendly.
//
// The whole table is one sorted array of packed uint64 keys (PackEdge
// order equals Edge.Less order): ID is a single binary search, Edge(id) is
// an unpack, and construction is one append sweep — no hashing, and no
// per-node offset table, so building costs O(edges) regardless of how many
// nodes the graph has (motif indexes intern a few hundred touched edges
// out of thousands-node graphs on every build).
//
// The interner describes the graph at build time; it is not invalidated by
// later edge deletions (deleting edges is the TPP hot path, and a deleted
// edge keeps its id). Edges added after the build are unknown and map to
// NoEdge.
type Interner struct {
	packed []uint64 // canonical edges packed with PackEdge, strictly ascending
}

// NewInterner builds the edge table for the current edges of g.
// Ids are assigned in canonical lexicographic order: id(e1) < id(e2) iff
// e1.Less(e2). Graph.EachEdge already yields edges in exactly that order
// (the sorted-slice adjacency is swept in canonical order), so the build is
// a single append sweep.
func NewInterner(g *Graph) *Interner {
	in := &Interner{packed: make([]uint64, 0, g.NumEdges())}
	g.EachEdge(func(e Edge) bool {
		in.packed = append(in.packed, PackEdge(e))
		return true
	})
	return in
}

// NewInternerFromPacked builds an edge table directly over packed edge keys
// (PackEdge order), which must be strictly ascending; the slice is
// retained. Callers that already hold a sorted, deduplicated packed
// universe (the motif index builder) intern it with zero copying.
func NewInternerFromPacked(packed []uint64) *Interner {
	for i := 1; i < len(packed); i++ {
		if packed[i-1] >= packed[i] {
			panic(fmt.Sprintf("graph: packed edge list not sorted/unique at %d", i))
		}
	}
	return &Interner{packed: packed}
}

// NumEdges returns the number of interned edges.
func (in *Interner) NumEdges() int { return len(in.packed) }

// ID returns the dense id of e, or NoEdge when e was not an edge of the
// snapshot. Non-canonical e is canonicalised first. The lookup is one
// binary search over the packed keys — O(log edges), no hashing.
func (in *Interner) ID(e Edge) EdgeID {
	if !e.Canonical() {
		if e.U == e.V {
			return NoEdge
		}
		e = Edge{e.V, e.U}
	}
	i, found := slices.BinarySearch(in.packed, PackEdge(e))
	if !found {
		return NoEdge
	}
	return EdgeID(i)
}

// Edge returns the edge with the given id. It panics on ids outside
// [0, NumEdges).
func (in *Interner) Edge(id EdgeID) Edge {
	if id < 0 || int(id) >= len(in.packed) {
		panic(fmt.Sprintf("graph: edge id %d out of range [0,%d)", id, len(in.packed)))
	}
	return UnpackEdge(in.packed[id])
}

// Edges converts a slice of ids to edges in one pass.
func (in *Interner) Edges(ids []EdgeID) []Edge {
	out := make([]Edge, len(ids))
	for i, id := range ids {
		out[i] = in.Edge(id)
	}
	return out
}

// MemFootprint returns the approximate resident byte footprint of the edge
// table, for the session tier's memory budget.
func (in *Interner) MemFootprint() int64 {
	return 24 + int64(cap(in.packed))*8
}
