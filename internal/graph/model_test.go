package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// modelGraph is the map-based reference the sorted-slice core is checked
// against: the straightforward adjacency-set implementation the library
// used before the graph-core refactor. It is deliberately naive — every
// operation is spelled out over map sets — so a disagreement always
// indicts the optimized core.
type modelGraph struct {
	adj   []map[NodeID]struct{}
	edges int
}

func newModel(n int) *modelGraph {
	m := &modelGraph{adj: make([]map[NodeID]struct{}, n)}
	for i := range m.adj {
		m.adj[i] = make(map[NodeID]struct{})
	}
	return m
}

func (m *modelGraph) addNode() NodeID {
	m.adj = append(m.adj, make(map[NodeID]struct{}))
	return NodeID(len(m.adj) - 1)
}

func (m *modelGraph) addEdge(u, v NodeID) bool {
	if _, ok := m.adj[u][v]; ok {
		return false
	}
	m.adj[u][v] = struct{}{}
	m.adj[v][u] = struct{}{}
	m.edges++
	return true
}

// removeNode mirrors Graph.RemoveNode's swap-with-last contract on the map
// reference: strip n's edges, renumber the last node to n, return the old
// ID of the node now at n.
func (m *modelGraph) removeNode(n NodeID) NodeID {
	for w := range m.adj[n] {
		delete(m.adj[w], n)
	}
	m.edges -= len(m.adj[n])
	m.adj[n] = nil
	last := NodeID(len(m.adj) - 1)
	if n != last {
		m.adj[n] = m.adj[last]
		for w := range m.adj[n] {
			delete(m.adj[w], last)
			m.adj[w][n] = struct{}{}
		}
	}
	m.adj = m.adj[:last]
	return last
}

func (m *modelGraph) removeEdge(u, v NodeID) bool {
	if _, ok := m.adj[u][v]; !ok {
		return false
	}
	delete(m.adj[u], v)
	delete(m.adj[v], u)
	m.edges--
	return true
}

func (m *modelGraph) hasEdge(u, v NodeID) bool {
	_, ok := m.adj[u][v]
	return ok
}

func (m *modelGraph) neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(m.adj[n]))
	for w := range m.adj[n] {
		out = append(out, w)
	}
	for i := 1; i < len(out); i++ { // insertion sort: the model stays naive
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkAgainstModel asserts full observational equality of graph and model.
func checkAgainstModel(t *testing.T, g *Graph, m *modelGraph) {
	t.Helper()
	if g.NumNodes() != len(m.adj) {
		t.Fatalf("NumNodes = %d, model has %d", g.NumNodes(), len(m.adj))
	}
	if g.NumEdges() != m.edges {
		t.Fatalf("NumEdges = %d, model has %d", g.NumEdges(), m.edges)
	}
	for n := NodeID(0); int(n) < len(m.adj); n++ {
		if g.Degree(n) != len(m.adj[n]) {
			t.Fatalf("Degree(%d) = %d, model has %d", n, g.Degree(n), len(m.adj[n]))
		}
		want := m.neighbors(n)
		if got := g.Neighbors(n); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("Neighbors(%d) = %v, model has %v", n, got, want)
		}
		if got := g.NeighborsView(n); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("NeighborsView(%d) = %v, model has %v", n, got, want)
		}
		for w := NodeID(0); int(w) < len(m.adj); w++ {
			if g.HasEdge(n, w) != m.hasEdge(n, w) {
				t.Fatalf("HasEdge(%d,%d) = %v, model disagrees", n, w, g.HasEdge(n, w))
			}
		}
	}
}

// applyModelOp decodes one mutation from a byte pair and applies it to both
// the graph and the model, asserting the mutation reports agree. Returns
// whether a structural check is due (AddNode boundaries double as
// checkpoints).
func applyModelOp(t *testing.T, g *Graph, m *modelGraph, a, b byte) bool {
	t.Helper()
	n := NodeID(g.NumNodes())
	switch {
	case a%8 == 7 && n < 64: // grow, bounded so pair coverage stays dense
		if got, want := g.AddNode(), m.addNode(); got != want {
			t.Fatalf("AddNode = %d, model got %d", got, want)
		}
		return true
	case a%8 == 6 && b%4 == 0 && n > 4: // shrink, rarely, keeping ≥4 nodes
		x := NodeID(b) % n
		if got, want := g.RemoveNode(x), m.removeNode(x); got != want {
			t.Fatalf("RemoveNode(%d) = %d, model got %d", x, got, want)
		}
		return true
	default:
		u, v := NodeID(a)%n, NodeID(b)%n
		if u == v {
			return false
		}
		if b%3 == 0 {
			if got, want := g.RemoveEdge(u, v), m.removeEdge(u, v); got != want {
				t.Fatalf("RemoveEdge(%d,%d) = %v, model got %v", u, v, got, want)
			}
		} else {
			if got, want := g.AddEdge(u, v), m.addEdge(u, v); got != want {
				t.Fatalf("AddEdge(%d,%d) = %v, model got %v", u, v, got, want)
			}
		}
		return false
	}
}

// FuzzGraphModel drives the sorted-slice core against the map-based
// reference under arbitrary AddEdge/RemoveEdge/AddNode/RemoveNode
// sequences: degrees, HasEdge answers, sorted neighbor sets, edge counts
// and the swap-with-last renumbering must agree at every checkpoint and at
// the end of the sequence.
func FuzzGraphModel(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x07, 0x00, 0x05, 0x06})
	f.Add([]byte{0xff, 0xfe, 0x00, 0x03, 0x30, 0x21, 0x12, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New(8)
		m := newModel(8)
		for i := 0; i+1 < len(data); i += 2 {
			if applyModelOp(t, g, m, data[i], data[i+1]) {
				checkAgainstModel(t, g, m)
			}
		}
		checkAgainstModel(t, g, m)
	})
}

// TestGraphMatchesModelRandomOps is the seeded always-on form of the fuzz
// property, so plain `go test` exercises long random op sequences too.
func TestGraphMatchesModelRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(12)
		m := newModel(12)
		for op := 0; op < 600; op++ {
			a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
			applyModelOp(t, g, m, a, b)
			if op%97 == 0 {
				checkAgainstModel(t, g, m)
			}
		}
		checkAgainstModel(t, g, m)
	}
}

// TestFromEdgesMatchesAddEdge checks the bulk constructor against the
// AddEdge loop it replaces, on random edge lists with duplicates, reversed
// pairs and isolated nodes: same rows, NumEdges and Edges(); each row
// capped at its own span, so an insert right after the build leaves the
// next row alone; and MemFootprint counting exactly the row capacities.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(40)
		// Only the lower half of the ids appear in edges, so the upper half
		// stays isolated.
		span := 2 + rng.Intn(n-1)
		var edges []Edge
		for i, m := 0, rng.Intn(4*n); i < m; i++ {
			u, v := NodeID(rng.Intn(span)), NodeID(rng.Intn(span))
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v}) // either orientation
			if rng.Intn(4) == 0 {
				edges = append(edges, Edge{v, u}) // reversed duplicate
			}
		}
		want := New(n)
		for _, e := range edges {
			want.AddEdge(e.U, e.V)
		}
		g := FromEdges(n, edges)
		if g.NumNodes() != n || g.NumEdges() != want.NumEdges() {
			t.Fatalf("iter %d: %d nodes / %d edges, want %d / %d", iter, g.NumNodes(), g.NumEdges(), n, want.NumEdges())
		}
		rowCaps := 0
		for u := NodeID(0); int(u) < n; u++ {
			if !reflect.DeepEqual(append([]NodeID{}, g.NeighborsView(u)...), append([]NodeID{}, want.NeighborsView(u)...)) {
				t.Fatalf("iter %d: row %d = %v, want %v", iter, u, g.NeighborsView(u), want.NeighborsView(u))
			}
			rowCaps += cap(g.NeighborsView(u))
		}
		if !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("iter %d: Edges() = %v, want %v", iter, g.Edges(), want.Edges())
		}
		if got, wantB := g.MemFootprint(), int64(24+24*cap(g.adj)+4*rowCaps); got != wantB {
			t.Fatalf("iter %d: MemFootprint %d, want %d from the row capacities", iter, got, wantB)
		}
		// Insert into some row u and check row u+1 did not move.
		u := NodeID(rng.Intn(n - 1))
		next := append([]NodeID{}, g.NeighborsView(u+1)...)
		for v := NodeID(0); int(v) < n; v++ {
			if v != u && v != u+1 && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				want.AddEdge(u, v)
				break
			}
		}
		if got := g.NeighborsView(u + 1); !reflect.DeepEqual(append([]NodeID{}, got...), next) {
			t.Fatalf("iter %d: inserting into row %d changed row %d: %v, was %v", iter, u, u+1, got, next)
		}
		if !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("iter %d: after an insert Edges() = %v, want %v", iter, g.Edges(), want.Edges())
		}
	}
}
