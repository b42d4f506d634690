package motif

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// applyFixture builds a small phase-1 graph with one triangle target:
// target (0,1) removed, completions through 2 and 3, spare nodes 4..5.
func applyFixture(t *testing.T) (*graph.Graph, []graph.Edge, *Index) {
	t.Helper()
	g := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	targets := []graph.Edge{{U: 0, V: 1}}
	ix, err := NewIndex(g, Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	if ix.TotalSimilarity() != 2 {
		t.Fatalf("fixture similarity = %d, want 2", ix.TotalSimilarity())
	}
	return g, targets, ix
}

func TestApplyDeltaRemovalKillsIncidentInstances(t *testing.T) {
	g, _, ix := applyFixture(t)
	rem := graph.Edge{U: 0, V: 2}
	g.RemoveEdgeE(rem)
	st, err := ix.ApplyMutation(g, Mutation{Removed: []graph.Edge{rem}})
	if err != nil {
		t.Fatal(err)
	}
	if st.KilledInstances != 1 || st.TouchedTargets != 0 {
		t.Fatalf("stats = %+v, want 1 kill, 0 touched", st)
	}
	if ix.TotalSimilarity() != 1 {
		t.Fatalf("similarity = %d, want 1", ix.TotalSimilarity())
	}
	if gainOf(ix, graph.Edge{U: 1, V: 2}) != 0 {
		t.Fatalf("gain of orphaned leg 1-2 = %d, want 0", gainOf(ix, graph.Edge{U: 1, V: 2}))
	}
	// The dangling partner edge must have left the candidate universe,
	// exactly as in a fresh build.
	for _, e := range ix.AllTouchedEdges() {
		if e == (graph.Edge{U: 0, V: 2}) || e == (graph.Edge{U: 1, V: 2}) {
			t.Fatalf("stale edge %v still in universe %v", e, ix.AllTouchedEdges())
		}
	}
}

func TestApplyDeltaInsertionCreatesInstances(t *testing.T) {
	g, _, ix := applyFixture(t)
	// Connect spare node 4 to both target endpoints: one new completion.
	ins := []graph.Edge{{U: 0, V: 4}, {U: 1, V: 4}}
	for _, e := range ins {
		g.AddEdgeE(e)
	}
	st, err := ix.ApplyMutation(g, Mutation{Inserted: ins})
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedTargets != 1 {
		t.Fatalf("stats = %+v, want 1 touched target", st)
	}
	if ix.TotalSimilarity() != 3 {
		t.Fatalf("similarity = %d, want 3", ix.TotalSimilarity())
	}
	if gainOf(ix, graph.Edge{U: 0, V: 4}) != 1 {
		t.Fatalf("gain(0-4) = %d, want 1", gainOf(ix, graph.Edge{U: 0, V: 4}))
	}
}

func TestApplyDeltaUntouchedTargetSkipsEnumeration(t *testing.T) {
	g, _, ix := applyFixture(t)
	// A triangle-irrelevant insertion far from the target: no kills, no
	// touched targets, index state unchanged.
	ins := []graph.Edge{{U: 3, V: 5}}
	g.AddEdgeE(ins[0])
	st, err := ix.ApplyMutation(g, Mutation{Inserted: ins})
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedTargets != 0 || st.KilledInstances != 0 {
		t.Fatalf("stats = %+v, want nothing touched", st)
	}
	if ix.TotalSimilarity() != 2 {
		t.Fatalf("similarity = %d, want 2", ix.TotalSimilarity())
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g, _, ix := applyFixture(t)
	// Graph not yet mutated: inserted edge absent.
	if _, err := ix.ApplyMutation(g, Mutation{Inserted: []graph.Edge{{U: 0, V: 4}}}); err == nil {
		t.Fatal("want error for inserted edge absent from graph")
	}
	// Removed edge still present.
	if _, err := ix.ApplyMutation(g, Mutation{Removed: []graph.Edge{{U: 0, V: 2}}}); err == nil {
		t.Fatal("want error for removed edge still present")
	}
	// Target link present in the graph.
	g.AddEdge(0, 1)
	if _, err := ix.ApplyMutation(g, Mutation{Inserted: []graph.Edge{{U: 0, V: 1}}}); err == nil {
		t.Fatal("want error for target link present")
	}
}

// TestInsertTouchesSound spot-checks the conservative touched test against
// ground truth on random graphs: whenever inserting an edge changes a
// target's instance count, insertTouches must have flagged that target.
func TestInsertTouchesSound(t *testing.T) {
	for _, pattern := range AllPatterns {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(pattern) + 100))
			for trial := 0; trial < 30; trial++ {
				g := gen.ErdosRenyiGNM(24, 33, rng) // ~12% of the 276 node pairs
				// Pick a target pair that is a non-edge (phase-1 style).
				var tgt graph.Edge
				for {
					u, v := graph.NodeID(rng.Intn(24)), graph.NodeID(rng.Intn(24))
					if u != v && !g.HasEdge(u, v) {
						tgt = graph.NewEdge(u, v)
						break
					}
				}
				before := Count(g, pattern, tgt)
				// Insert a random absent edge.
				var e graph.Edge
				for {
					u, v := graph.NodeID(rng.Intn(24)), graph.NodeID(rng.Intn(24))
					if u != v && !g.HasEdge(u, v) && graph.NewEdge(u, v) != tgt {
						e = graph.NewEdge(u, v)
						break
					}
				}
				g.AddEdgeE(e)
				after := Count(g, pattern, tgt)
				hasUnion := func(x, y graph.NodeID) bool { return g.HasEdge(x, y) }
				if after != before && !insertTouches(pattern, tgt, e, hasUnion) {
					t.Fatalf("trial %d: inserting %v changed count of %v (%d→%d) but insertTouches said no",
						trial, e, tgt, before, after)
				}
				g.RemoveEdgeE(e)
			}
		})
	}
}

// mutationFixture is applyFixture with a second target (4,5): its single
// triangle completion runs through node 3 (edges 3-4, 3-5).
func mutationFixture(t *testing.T) (*graph.Graph, *Index) {
	t.Helper()
	g := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {3, 4}, {3, 5}} {
		g.AddEdge(e[0], e[1])
	}
	targets := []graph.Edge{{U: 0, V: 1}, {U: 4, V: 5}}
	ix, err := NewIndex(g, Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	if ix.TotalSimilarity() != 3 || ix.Similarities()[0] != 2 || ix.Similarities()[1] != 1 {
		t.Fatalf("fixture similarities = %v, want [2 1]", ix.Similarities())
	}
	return g, ix
}

// TestApplyMutationTargetDrop pins the incremental target retirement: the
// dropped target's instances are discarded wholesale, nothing is
// enumerated, and the result matches a fresh build on the shrunken list.
func TestApplyMutationTargetDrop(t *testing.T) {
	g, ix := mutationFixture(t)
	st, err := ix.ApplyMutation(g, Mutation{DropTargets: []graph.Edge{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TargetsDropped != 1 || st.DroppedInstances != 2 || st.TouchedTargets != 0 {
		t.Fatalf("stats = %+v, want 1 target / 2 instances dropped, 0 touched", st)
	}
	if got := ix.Targets(); len(got) != 1 || got[0] != (graph.Edge{U: 4, V: 5}) {
		t.Fatalf("targets after drop = %v, want [4-5]", got)
	}
	if ix.TotalSimilarity() != 1 || ix.Similarities()[0] != 1 {
		t.Fatalf("similarities = %v, want [1]", ix.Similarities())
	}
	// The retired target's edges must have left the candidate universe.
	for _, e := range ix.AllTouchedEdges() {
		if e.Has(0) || e.Has(1) {
			t.Fatalf("edge %v of the dropped target still in universe", e)
		}
	}
}

// TestApplyMutationTargetAdd pins the incremental target addition: only the
// new target is enumerated (TouchedTargets stays 0), appended after the
// survivors.
func TestApplyMutationTargetAdd(t *testing.T) {
	g, ix := mutationFixture(t)
	// New target (2,3): triangle completions through 0 and 1 (2-0-3, 2-1-3).
	st, err := ix.ApplyMutation(g, Mutation{AddTargets: []graph.Edge{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TargetsAdded != 1 || st.TouchedTargets != 0 || st.KilledInstances != 0 {
		t.Fatalf("stats = %+v, want 1 target added and nothing else touched", st)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 4, V: 5}, {U: 2, V: 3}}
	got := ix.Targets()
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
	if ix.TotalSimilarity() != 5 || ix.Similarities()[2] != 2 {
		t.Fatalf("similarities = %v, want [2 1 2]", ix.Similarities())
	}
}

// TestApplyMutationNodeRemovalRemap pins the universe renaming: removing an
// isolated node renumbers the last node into its slot, and the index must
// re-spell every stored edge without enumerating anything.
func TestApplyMutationNodeRemovalRemap(t *testing.T) {
	g, ix := mutationFixture(t)
	// Isolate and remove node 2 (edges 0-2, 1-2 removed): target (0,1)
	// keeps one completion (via 3); node 5 is renumbered to 2, renaming
	// target (4,5) to (2,4) and edge 3-5 to 2-3.
	removed := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}
	g.RemoveEdges(removed)
	remap := g.RemoveNodes([]graph.NodeID{2})
	st, err := ix.ApplyMutation(g, Mutation{Removed: removed, Remap: remap})
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedTargets != 0 || st.KilledInstances != 1 {
		t.Fatalf("stats = %+v, want 1 kill and no enumeration", st)
	}
	got := ix.Targets()
	wantT := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 4}}
	for i := range wantT {
		if got[i] != wantT[i] {
			t.Fatalf("targets = %v, want %v", got, wantT)
		}
	}
	fresh, err := NewIndex(g, Triangle, got)
	if err != nil {
		t.Fatal(err)
	}
	if ix.TotalSimilarity() != fresh.TotalSimilarity() {
		t.Fatalf("similarity = %d, fresh build has %d", ix.TotalSimilarity(), fresh.TotalSimilarity())
	}
	gotU, wantU := ix.AllTouchedEdges(), fresh.AllTouchedEdges()
	if len(gotU) != len(wantU) {
		t.Fatalf("universe = %v, fresh build has %v", gotU, wantU)
	}
	for i := range wantU {
		if gotU[i] != wantU[i] {
			t.Fatalf("universe = %v, fresh build has %v", gotU, wantU)
		}
	}
}

func TestApplyMutationErrors(t *testing.T) {
	g, ix := mutationFixture(t)
	if _, err := ix.ApplyMutation(g, Mutation{DropTargets: []graph.Edge{{U: 2, V: 3}}}); err == nil {
		t.Fatal("want error for dropping a non-target")
	}
	if _, err := ix.ApplyMutation(g, Mutation{DropTargets: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}}); err == nil {
		t.Fatal("want error for dropping a target twice")
	}
}

// TestTargetsReturnsCopy pins the hardened accessor: mutating the returned
// slice must not corrupt the index's target list.
func TestTargetsReturnsCopy(t *testing.T) {
	_, ix := mutationFixture(t)
	got := ix.Targets()
	got[0] = graph.Edge{U: 9, V: 10}
	if ix.Targets()[0] != (graph.Edge{U: 0, V: 1}) {
		t.Fatal("Targets() aliases internal state; mutation leaked in")
	}
}
