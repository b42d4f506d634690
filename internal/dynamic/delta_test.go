package dynamic

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestDeltaCanonicalize(t *testing.T) {
	d := Delta{
		Insert: []graph.Edge{{U: 5, V: 2}, {U: 2, V: 5}, {U: 1, V: 3}},
		Remove: []graph.Edge{{U: 4, V: 0}},
	}
	c, err := d.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	wantIns := []graph.Edge{{U: 1, V: 3}, {U: 2, V: 5}}
	if len(c.Insert) != len(wantIns) {
		t.Fatalf("insert = %v, want %v", c.Insert, wantIns)
	}
	for i, e := range wantIns {
		if c.Insert[i] != e {
			t.Fatalf("insert = %v, want %v", c.Insert, wantIns)
		}
	}
	if len(c.Remove) != 1 || (c.Remove[0] != graph.Edge{U: 0, V: 4}) {
		t.Fatalf("remove = %v, want [0-4]", c.Remove)
	}
	if c.Size() != 3 || c.Empty() {
		t.Fatalf("size = %d, empty = %v", c.Size(), c.Empty())
	}
}

func TestDeltaCanonicalizeRejects(t *testing.T) {
	if _, err := (Delta{Insert: []graph.Edge{{U: 3, V: 3}}}).Canonicalize(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("self loop: err = %v, want ErrInvalid", err)
	}
	conflict := Delta{
		Insert: []graph.Edge{{U: 1, V: 2}},
		Remove: []graph.Edge{{U: 2, V: 1}},
	}
	if _, err := conflict.Canonicalize(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("insert+remove conflict: err = %v, want ErrInvalid", err)
	}
}

func TestDeltaValidate(t *testing.T) {
	g := gen.Path(6) // 0-1-2-3-4-5
	targets := []graph.Edge{{U: 2, V: 3}}
	cases := []struct {
		name string
		d    Delta
		ok   bool
	}{
		{"valid", Delta{Insert: []graph.Edge{{U: 0, V: 2}}, Remove: []graph.Edge{{U: 4, V: 5}}}, true},
		{"insert existing", Delta{Insert: []graph.Edge{{U: 0, V: 1}}}, false},
		{"remove absent", Delta{Remove: []graph.Edge{{U: 0, V: 5}}}, false},
		{"insert out of range", Delta{Insert: []graph.Edge{{U: 0, V: 9}}}, false},
		{"remove target", Delta{Remove: []graph.Edge{{U: 2, V: 3}}}, false},
		{"empty", Delta{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate(g, targets)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
		})
	}
	// Target insertion must be rejected even on the phase-1 graph, where the
	// target link is absent and would otherwise look like a fresh edge.
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)
	ins := Delta{Insert: []graph.Edge{{U: 2, V: 3}}}
	if err := ins.Validate(phase1, targets); !errors.Is(err, ErrInvalid) {
		t.Fatalf("target insertion on phase-1 graph: err = %v, want ErrInvalid", err)
	}
}

func TestDeltaApplyToGraph(t *testing.T) {
	g := gen.Path(5)
	g.AddEdge(0, 4) // close the cycle C_5
	d, err := (Delta{
		Insert: []graph.Edge{{U: 0, V: 2}},
		Remove: []graph.Edge{{U: 3, V: 4}},
	}).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, nil); err != nil {
		t.Fatal(err)
	}
	d.ApplyToGraph(g)
	if !g.HasEdge(0, 2) || g.HasEdge(3, 4) || g.NumEdges() != 5 {
		t.Fatalf("graph after apply: %v (0-2 present=%v, 3-4 present=%v)", g, g.HasEdge(0, 2), g.HasEdge(3, 4))
	}
}

// The mutation churn generator emits a field-identical struct so gen stays
// dependency-free; this conversion must keep compiling.
var _ = Delta(gen.Mutation{})

func TestDeltaCanonicalizeV2(t *testing.T) {
	d := Delta{
		AddNodes:    2,
		RemoveNodes: []graph.NodeID{5, 3, 5},
		AddTargets:  []graph.Edge{{U: 7, V: 2}, {U: 2, V: 7}},
		DropTargets: []graph.Edge{{U: 1, V: 0}},
	}
	c, err := d.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.AddNodes != 2 {
		t.Fatalf("AddNodes = %d, want 2", c.AddNodes)
	}
	if len(c.RemoveNodes) != 2 || c.RemoveNodes[0] != 3 || c.RemoveNodes[1] != 5 {
		t.Fatalf("RemoveNodes = %v, want [3 5]", c.RemoveNodes)
	}
	if len(c.AddTargets) != 1 || c.AddTargets[0] != (graph.Edge{U: 2, V: 7}) {
		t.Fatalf("AddTargets = %v, want [2-7]", c.AddTargets)
	}
	if len(c.DropTargets) != 1 || c.DropTargets[0] != (graph.Edge{U: 0, V: 1}) {
		t.Fatalf("DropTargets = %v, want [0-1]", c.DropTargets)
	}
	if c.Size() != 6 || c.Empty() {
		t.Fatalf("size = %d, empty = %v", c.Size(), c.Empty())
	}
}

func TestDeltaCanonicalizeRejectsV2(t *testing.T) {
	cases := map[string]Delta{
		"negative add nodes":     {AddNodes: -1},
		"insert+add target":      {Insert: []graph.Edge{{U: 1, V: 2}}, AddTargets: []graph.Edge{{U: 2, V: 1}}},
		"remove+add target":      {Remove: []graph.Edge{{U: 1, V: 2}}, AddTargets: []graph.Edge{{U: 1, V: 2}}},
		"add target+drop target": {AddTargets: []graph.Edge{{U: 1, V: 2}}, DropTargets: []graph.Edge{{U: 1, V: 2}}},
		"target self loop":       {AddTargets: []graph.Edge{{U: 3, V: 3}}},
	}
	for name, d := range cases {
		if _, err := d.Canonicalize(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

func TestDeltaValidateV2(t *testing.T) {
	// Path 0-1-2-3-4-5 with targets 2-3 and 4-5 (4-5 added below).
	g := gen.Path(6)
	g.AddEdge(4, 0) // extra edge so node 5's only edge is the target 4-5
	targets := []graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}}
	cases := []struct {
		name string
		d    Delta
		ok   bool
	}{
		{"add target absent pair", Delta{AddTargets: []graph.Edge{{U: 0, V: 2}}}, true},
		{"add target existing edge", Delta{AddTargets: []graph.Edge{{U: 0, V: 1}}}, false},
		{"add target already target", Delta{AddTargets: []graph.Edge{{U: 3, V: 2}}}, false},
		{"add target out of range", Delta{AddTargets: []graph.Edge{{U: 0, V: 9}}}, false},
		{"add target to new node", Delta{AddNodes: 1, AddTargets: []graph.Edge{{U: 0, V: 6}}}, true},
		{"drop non-target", Delta{DropTargets: []graph.Edge{{U: 0, V: 1}}}, false},
		{"drop one of two", Delta{DropTargets: []graph.Edge{{U: 2, V: 3}}}, true},
		{"drop all", Delta{DropTargets: []graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}}}, false},
		{"drop all but add one", Delta{DropTargets: []graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}}, AddTargets: []graph.Edge{{U: 0, V: 2}}}, true},
		{"add nodes", Delta{AddNodes: 3}, true},
		{"insert to new node", Delta{AddNodes: 1, Insert: []graph.Edge{{U: 0, V: 6}}}, true},
		{"insert past new nodes", Delta{AddNodes: 1, Insert: []graph.Edge{{U: 0, V: 7}}}, false},
		{"remove node out of range", Delta{RemoveNodes: []graph.NodeID{6}}, false},
		{"remove node not isolated", Delta{RemoveNodes: []graph.NodeID{0}}, false},
		{"remove node isolated by removals", Delta{Remove: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 4}}, RemoveNodes: []graph.NodeID{0}}, true},
		{"remove target endpoint", Delta{Remove: []graph.Edge{{U: 1, V: 2}}, RemoveNodes: []graph.NodeID{2}}, false},
		{"remove endpoint of dropped target", Delta{DropTargets: []graph.Edge{{U: 4, V: 5}}, RemoveNodes: []graph.NodeID{5}}, true},
		{"insert touching removed node", Delta{Remove: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 4}}, RemoveNodes: []graph.NodeID{0}, Insert: []graph.Edge{{U: 0, V: 2}}}, false},
		{"same-delta arrival cannot depart", Delta{AddNodes: 1, RemoveNodes: []graph.NodeID{6}}, false},
	}
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.d.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			// Validation must agree on the original and phase-1 graphs.
			for which, gg := range map[string]*graph.Graph{"original": g, "phase1": phase1} {
				err := d.Validate(gg, targets)
				if tc.ok && err != nil {
					t.Fatalf("%s: unexpected error: %v", which, err)
				}
				if !tc.ok && !errors.Is(err, ErrInvalid) {
					t.Fatalf("%s: err = %v, want ErrInvalid", which, err)
				}
			}
		})
	}
}

// TestDeltaApplyAndTargets pins the application order and the remap: node
// arrivals first, then edge churn, then departures with swap-with-last
// renaming — applied to the phase-1 graph, which target edits never touch —
// with ApplyTargets following the same renaming.
func TestDeltaApplyAndTargets(t *testing.T) {
	g := gen.Path(5) // 0-1-2-3-4
	targets := []graph.Edge{{U: 2, V: 3}}
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)

	d, err := (Delta{
		AddNodes:    1, // node 5
		Insert:      []graph.Edge{{U: 0, V: 5}},
		Remove:      []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		RemoveNodes: []graph.NodeID{1},
		AddTargets:  []graph.Edge{{U: 2, V: 5}},
	}).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(phase1, targets); err != nil {
		t.Fatal(err)
	}
	remap := d.ApplyToGraph(phase1)
	// Node 1 removed; node 5 (the last) renumbered to 1.
	if remap[1] != graph.NoNode || remap[5] != 1 || remap[0] != 0 {
		t.Fatalf("remap = %v, want 1 removed and 5→1", remap)
	}
	newTargets := d.ApplyTargets(targets, remap)
	want := []graph.Edge{{U: 2, V: 3}, {U: 1, V: 2}} // added 2-5 renamed to 1-2
	if len(newTargets) != 2 || newTargets[0] != want[0] || newTargets[1] != want[1] {
		t.Fatalf("targets = %v, want %v", newTargets, want)
	}
	// The phase-1 graph keeps 3-4 and the inserted 0-5, renamed to 0-1;
	// neither the old target 2-3 nor the added one (now 1-2) is in it.
	wantEdges := []graph.Edge{{U: 0, V: 1}, {U: 3, V: 4}}
	if got := phase1.Edges(); phase1.NumNodes() != 5 || !slices.Equal(got, wantEdges) {
		t.Fatalf("phase1 after apply: %d nodes, edges %v; want 5 nodes, edges %v", phase1.NumNodes(), got, wantEdges)
	}
}

// TestApplyTargetsNoChangeReturnsSameSlice pins the no-op fast path: an
// edge-only delta leaves a session's target list as it is, unallocated.
func TestApplyTargetsNoChangeReturnsSameSlice(t *testing.T) {
	targets := []graph.Edge{{U: 1, V: 2}}
	d := Delta{Insert: []graph.Edge{{U: 0, V: 3}}}
	if got := d.ApplyTargets(targets, nil); &got[0] != &targets[0] {
		t.Fatal("edge-only delta should return the target slice unchanged")
	}
}

// TestTargetSetApplyTracksTargets drives a session-shaped target set
// through random mutation batches — target adds and drops, and node
// departures whose swap-with-last renaming re-spells targets — and
// requires it to equal the set of the list ApplyTargets returns after
// every batch. The graph is small and the target list dense, so renames
// often land on a target endpoint.
func TestTargetSetApplyTracksTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.BarabasiAlbertTriad(30, 3, 0.4, rng)
	targets := g.Edges()[:12]
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)
	churn := gen.NewMutationChurn(g, targets, gen.ChurnRates{
		EdgeInsert: 1, EdgeRemove: 1, NodeArrive: 1, NodeDepart: 2, TargetAdd: 2, TargetDrop: 2,
	}, rng)
	set := NewTargetSet(targets)
	renamed := 0
	for step := 0; step < 300; step++ {
		d, err := Delta(churn.Next(4)).Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ValidateTargets(phase1, set); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		remap := d.ApplyToGraph(phase1)
		for _, tgt := range targets {
			c := graph.NewEdge(tgt.U, tgt.V)
			if remap != nil && !slices.Contains(d.DropTargets, c) && graph.NewEdge(remap[c.U], remap[c.V]) != c {
				renamed++
			}
		}
		targets = d.ApplyTargets(targets, remap)
		set.Apply(d, remap)
		if want := NewTargetSet(targets); !slices.Equal(set.packed, want.packed) {
			t.Fatalf("step %d: set %v, want %v", step, set.packed, want.packed)
		}
	}
	if renamed == 0 {
		t.Fatal("no batch renamed a surviving target; the rename path went untested")
	}
}
