package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want 2-5", e)
	}
	if !e.Canonical() {
		t.Fatalf("edge %v should be canonical", e)
	}
	if got := NewEdge(2, 5); got != e {
		t.Fatalf("NewEdge is not order independent: %v vs %v", got, e)
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge returned true")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges after removal = %d, want 0", g.NumEdges())
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(3)
	if g.HasEdge(0, 5) || g.HasEdge(-1, 0) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge should be false for out-of-range or self pairs")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	want := []NodeID{0, 3, 4}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
	if g.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d, want 3", g.Degree(2))
	}
}

func TestNeighborsIsStableCopy(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	snap := g.Neighbors(0)
	g.AddEdge(0, 3)
	g.RemoveEdge(0, 1)
	if !reflect.DeepEqual(snap, []NodeID{1, 2}) {
		t.Fatalf("Neighbors snapshot changed under mutation: %v", snap)
	}
	// Mutating the copy must not touch the graph.
	snap[0] = 99
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []NodeID{2, 3}) {
		t.Fatalf("graph adjacency corrupted through Neighbors copy: %v", got)
	}
}

func TestNeighborsViewInvalidatedByMutation(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 0)
	g.AddEdge(2, 4)
	view := g.NeighborsView(2)
	if !reflect.DeepEqual(view, []NodeID{0, 4}) {
		t.Fatalf("NeighborsView(2) = %v, want [0 4]", view)
	}
	// A mutation invalidates the view: the row may have shifted in place,
	// so the old slice can now show stale contents. Re-fetching is the
	// contract — the fresh view must reflect the mutation.
	g.AddEdge(2, 1)
	if got := g.NeighborsView(2); !reflect.DeepEqual(got, []NodeID{0, 1, 4}) {
		t.Fatalf("re-fetched view = %v, want [0 1 4]", got)
	}
	g.RemoveEdge(2, 0)
	if got := g.NeighborsView(2); !reflect.DeepEqual(got, []NodeID{1, 4}) {
		t.Fatalf("re-fetched view after removal = %v, want [1 4]", got)
	}
}

func TestAppendCommonNeighborsReusesBuffer(t *testing.T) {
	g := New(6)
	for _, e := range [][2]NodeID{{0, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {1, 5}} {
		g.AddEdge(e[0], e[1])
	}
	buf := make([]NodeID, 0, 8)
	got := g.AppendCommonNeighbors(0, 1, buf)
	if !reflect.DeepEqual(got, []NodeID{3, 4}) {
		t.Fatalf("AppendCommonNeighbors = %v, want [3 4]", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendCommonNeighbors did not reuse the caller's buffer")
	}
	// Appending after existing content keeps the prefix.
	got2 := g.AppendCommonNeighbors(0, 1, got)
	if !reflect.DeepEqual(got2, []NodeID{3, 4, 3, 4}) {
		t.Fatalf("append onto prefix = %v", got2)
	}
}

// TestSkewedIntersection covers the binary-probe branch of the merge-join:
// one endpoint's degree is >16x the other's.
func TestSkewedIntersection(t *testing.T) {
	g := New(200)
	for v := NodeID(2); v < 180; v++ {
		g.AddEdge(0, v) // hub
	}
	g.AddEdge(1, 5)
	g.AddEdge(1, 179)
	g.AddEdge(1, 199) // not a hub neighbor
	if got := g.CommonNeighbors(0, 1); !reflect.DeepEqual(got, []NodeID{5, 179}) {
		t.Fatalf("skewed CommonNeighbors = %v, want [5 179]", got)
	}
	if got := g.CommonNeighborCount(1, 0); got != 2 {
		t.Fatalf("skewed CommonNeighborCount = %d, want 2", got)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New(6)
	for _, e := range [][2]NodeID{{0, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {1, 5}} {
		g.AddEdge(e[0], e[1])
	}
	want := []NodeID{3, 4}
	if got := g.CommonNeighbors(0, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("CommonNeighbors = %v, want %v", got, want)
	}
	if got := g.CommonNeighborCount(0, 1); got != 2 {
		t.Fatalf("CommonNeighborCount = %d, want 2", got)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating the clone changed the original")
	}
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatalf("edge counts wrong: orig=%d clone=%d", g.NumEdges(), c.NumEdges())
	}
}

func TestBFSDistances(t *testing.T) {
	// path 0-1-2-3 plus isolated node 4
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := g.BFSDistances(0)
	want := []int32{0, 1, 2, 3, -1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("BFSDistances = %v, want %v", d, want)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comp, n := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Fatalf("component assignment wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[5] == comp[0] || comp[5] == comp[2] {
		t.Fatalf("distinct components merged: %v", comp)
	}
	giant := g.GiantComponentNodes()
	if !reflect.DeepEqual(giant, []NodeID{2, 3, 4}) {
		t.Fatalf("giant component = %v, want [2 3 4]", giant)
	}
}

func TestIsConnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if g.IsConnected() {
		t.Fatal("graph with isolated node reported connected")
	}
	g.AddEdge(1, 2)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
alice bob
bob carol 42
alice bob
carol carol
alice dave
`
	g, lab, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3 (dupes and self loops dropped)", g.NumEdges())
	}
	if lab.Name(0) != "alice" {
		t.Fatalf("first label = %q, want alice", lab.Name(0))
	}
	a, b := lab.ToID["alice"], lab.ToID["bob"]
	if !g.HasEdge(a, b) {
		t.Fatal("alice-bob edge missing")
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("justone\n")); err == nil {
		t.Fatal("expected error for single-field line")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, lab, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Reading relabels nodes in first-seen order, so compare structurally
	// through the external labels.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count mismatch: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		u, okU := lab.ToID[fmtNode(e.U)]
		v, okV := lab.ToID[fmtNode(e.V)]
		if !okU || !okV || !g2.HasEdge(u, v) {
			t.Fatalf("edge %v missing after round trip", e)
		}
	}
}

func fmtNode(n NodeID) string {
	return (&Labeling{}).Name(n)
}

// Property: ReadEdgeList never panics on arbitrary byte soup — it either
// parses or returns an error.
func TestPropertyReadEdgeListRobust(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		g, _, err := ReadEdgeList(bytes.NewReader(data))
		if err == nil && g == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a reproducible random graph for property tests.
func randomGraph(n int, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for g.NumEdges() < m {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Property: the handshake lemma Σ deg(v) = 2·|E| holds for arbitrary graphs.
func TestPropertyHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(20, 40, seed)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing then re-adding an edge restores the exact edge set.
func TestPropertyRemoveRestore(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(15, 30, seed)
		before := g.Edges()
		rng := rand.New(rand.NewSource(seed))
		e := before[rng.Intn(len(before))]
		g.RemoveEdgeE(e)
		if g.HasEdgeE(e) {
			return false
		}
		g.AddEdgeE(e)
		return reflect.DeepEqual(g.Edges(), before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges
// (|d(u) − d(v)| ≤ 1 for every edge when both ends are reachable).
func TestPropertyBFSEdgeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 40, seed)
		d := g.BFSDistances(0)
		ok := true
		g.EachEdge(func(e Edge) bool {
			du, dv := d[e.U], d[e.V]
			if du >= 0 && dv >= 0 {
				diff := du - dv
				if diff < -1 || diff > 1 {
					ok = false
					return false
				}
			}
			if (du >= 0) != (dv >= 0) {
				ok = false // one endpoint reachable, the other not: impossible
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeSwapWithLast(t *testing.T) {
	// 0-1, 1-2, 2-3, 3-4, 4-0 cycle plus chord 1-4.
	g := New(5)
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 4}} {
		g.AddEdgeE(e)
	}
	// Removing 2 renumbers 4 → 2 and strips 1-2, 2-3.
	if moved := g.RemoveNode(2); moved != 4 {
		t.Fatalf("RemoveNode(2) moved %d, want 4", moved)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("after removal: %v, want 4 nodes / 4 edges", g)
	}
	// Old 4's edges (3-4, 0-4, 1-4) must now spell 2.
	for _, e := range []Edge{{2, 3}, {0, 2}, {1, 2}} {
		if !g.HasEdgeE(e) {
			t.Fatalf("edge %v missing after renumbering", e)
		}
	}
	if g.HasEdge(0, 1) != true || g.HasEdge(1, 3) != false {
		t.Fatal("unrelated adjacency changed")
	}
	// Rows must still be sorted (EachEdge canonical order relies on it).
	prev := Edge{-1, -1}
	g.EachEdge(func(e Edge) bool {
		if !prev.Less(e) {
			t.Fatalf("EachEdge order violated: %v after %v", e, prev)
		}
		prev = e
		return true
	})
}

func TestRemoveNodeLastIsNoMove(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	if moved := g.RemoveNode(2); moved != 2 {
		t.Fatalf("RemoveNode(last) moved %d, want 2 (no renumbering)", moved)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("after removal: %v, want 2 isolated nodes", g)
	}
}

func TestRemoveNodesRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(12)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		before := g.Clone()
		k := 1 + rng.Intn(n/2)
		perm := rng.Perm(n)
		nodes := make([]NodeID, 0, k)
		for _, x := range perm[:k] {
			nodes = append(nodes, NodeID(x))
		}
		slices.Sort(nodes)
		remap := g.RemoveNodes(nodes)
		if len(remap) != n || g.NumNodes() != n-k {
			t.Fatalf("trial %d: remap len %d, nodes %d; want %d, %d", trial, len(remap), g.NumNodes(), n, n-k)
		}
		// Removed nodes map to NoNode; survivors map to a bijection on
		// [0, n-k) and keep exactly their surviving edges under the rename.
		rmset := make(map[NodeID]bool, k)
		for _, x := range nodes {
			rmset[x] = true
		}
		seen := make(map[NodeID]bool, n-k)
		for old := NodeID(0); int(old) < n; old++ {
			nw := remap[old]
			if rmset[old] {
				if nw != NoNode {
					t.Fatalf("trial %d: removed node %d remapped to %d", trial, old, nw)
				}
				continue
			}
			if nw < 0 || int(nw) >= n-k || seen[nw] {
				t.Fatalf("trial %d: survivor %d remapped to %d (dup=%v)", trial, old, nw, seen[nw])
			}
			seen[nw] = true
		}
		wantEdges := 0
		before.EachEdge(func(e Edge) bool {
			if rmset[e.U] || rmset[e.V] {
				return true
			}
			wantEdges++
			if !g.HasEdge(remap[e.U], remap[e.V]) {
				t.Fatalf("trial %d: surviving edge %v missing as %d-%d", trial, e, remap[e.U], remap[e.V])
			}
			return true
		})
		if g.NumEdges() != wantEdges {
			t.Fatalf("trial %d: %d edges, want %d", trial, g.NumEdges(), wantEdges)
		}
	}
}

func TestRemoveNodesEmptyAndUnsortedPanics(t *testing.T) {
	g := New(4)
	if remap := g.RemoveNodes(nil); remap != nil {
		t.Fatalf("RemoveNodes(nil) = %v, want nil", remap)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted RemoveNodes list did not panic")
		}
	}()
	g.RemoveNodes([]NodeID{2, 1})
}

// walkFootprint is the full-walk form of MemFootprint: the spine plus every
// row's capacity, summed row by row. It is the reference the O(1) counter
// must equal after every mutation.
func walkFootprint(g *Graph) int64 {
	b := int64(24) + int64(cap(g.adj))*24
	for _, row := range g.adj {
		b += int64(cap(row)) * 4
	}
	return b
}

func TestMemFootprintCounterMatchesWalk(t *testing.T) {
	check := func(t *testing.T, step int, op string, g *Graph) {
		t.Helper()
		if got, want := g.MemFootprint(), walkFootprint(g); got != want {
			t.Fatalf("step %d (%s): MemFootprint = %d, row walk = %d", step, op, got, want)
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(10)
		check(t, -1, "New", g)
		for step := 0; step < 1500; step++ {
			n := g.NumNodes()
			var op string
			switch r := rng.Intn(100); {
			case r < 50 && n >= 2:
				op = "AddEdge"
				u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if u != v {
					g.AddEdge(u, v)
				}
			case r < 75 && n >= 2:
				op = "RemoveEdge"
				u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if u != v {
					g.RemoveEdge(u, v)
				}
			case r < 85:
				op = "AddNode"
				g.AddNode()
			case r < 95 && n > 4:
				op = "RemoveNodes"
				var nodes []NodeID
				for x := 0; x < n && len(nodes) < 3; x++ {
					if rng.Intn(n) < 2 {
						nodes = append(nodes, NodeID(x))
					}
				}
				g.RemoveNodes(nodes)
			default:
				op = "Clone"
				c := g.Clone()
				check(t, step, "Clone (original)", g)
				g = c
			}
			check(t, step, op, g)
		}
	}
}
