package tpp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// cloneState deep-copies the parts of a SessionState that Snapshot borrows
// from the live session (graph and targets), standing in for the encode →
// decode round trip internal/durable performs: Restore on the clone must
// not alias the live session's storage.
func cloneState(st *SessionState) *SessionState {
	c := *st
	c.Graph = st.Graph.Clone()
	c.Targets = append([]graph.Edge(nil), st.Targets...)
	return &c
}

// TestSnapshotRestoreParity pins the tentpole guarantee at the tpp layer: a
// session restored from its snapshot is observationally identical to the
// live one — same selections (bit for bit), same warm-start behaviour, same
// counters — including after both absorb the same further delta.
func TestSnapshotRestoreParity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	g := gen.BarabasiAlbertTriad(120, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 5, rng)

	live, err := New(g, targets, WithPattern(motif.Triangle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Run(ctx); err != nil {
		t.Fatal(err)
	}
	churn := gen.NewChurn(live.Problem().original(), targets, 0.5, rng)
	ins, rem := churn.Next(6)
	if _, err := live.Apply(ctx, dynamic.Delta{Insert: ins, Remove: rem}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Run(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := live.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index == nil {
		t.Fatal("snapshot of a run session should record index invariants")
	}
	if st.Warm == nil {
		t.Fatal("snapshot of a run session should carry warm-start state")
	}
	restored, err := Restore(cloneState(st))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.WarmRuns(), live.WarmRuns(); got != want {
		t.Fatalf("restored warm runs %d, live %d", got, want)
	}
	if got, want := restored.ColdRuns(), live.ColdRuns(); got != want {
		t.Fatalf("restored cold runs %d, live %d", got, want)
	}
	if got, want := restored.DeltasApplied(), live.DeltasApplied(); got != want {
		t.Fatalf("restored deltas %d, live %d", got, want)
	}
	if restored.IndexBuilds() != 1 {
		t.Fatalf("restore should rebuild the index exactly once, got %d builds", restored.IndexBuilds())
	}

	// The next run must match bit for bit, warm-start serving included.
	checkRunParity := func(stage string) {
		t.Helper()
		lr, err := live.Run(ctx)
		if err != nil {
			t.Fatalf("%s: live run: %v", stage, err)
		}
		rr, err := restored.Run(ctx)
		if err != nil {
			t.Fatalf("%s: restored run: %v", stage, err)
		}
		if lr.WarmStart != rr.WarmStart {
			t.Fatalf("%s: warm-start divergence: live %v, restored %v", stage, lr.WarmStart, rr.WarmStart)
		}
		if len(lr.Protectors) != len(rr.Protectors) {
			t.Fatalf("%s: live selected %d protectors, restored %d", stage, len(lr.Protectors), len(rr.Protectors))
		}
		for i := range lr.Protectors {
			if lr.Protectors[i] != rr.Protectors[i] {
				t.Fatalf("%s: protector %d: live %v, restored %v", stage, i, lr.Protectors[i], rr.Protectors[i])
			}
		}
		for i := range lr.SimilarityTrace {
			if lr.SimilarityTrace[i] != rr.SimilarityTrace[i] {
				t.Fatalf("%s: similarity trace diverges at %d", stage, i)
			}
		}
	}
	checkRunParity("after restore")

	// Same delta into both sessions: still indistinguishable.
	ins2, rem2 := churn.Next(5)
	dLive := dynamic.Delta{
		Insert: append([]graph.Edge(nil), ins2...),
		Remove: append([]graph.Edge(nil), rem2...),
	}
	dRestored := dynamic.Delta{
		Insert: append([]graph.Edge(nil), ins2...),
		Remove: append([]graph.Edge(nil), rem2...),
	}
	if _, err := live.Apply(ctx, dLive); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Apply(ctx, dRestored); err != nil {
		t.Fatal(err)
	}
	checkRunParity("after shared delta")
}

// TestSnapshotBeforeFirstRun: a never-run session snapshots without index
// invariants and restores to a session that defers its build to the first
// Run, exactly like a fresh one.
func TestSnapshotBeforeFirstRun(t *testing.T) {
	ctx := context.Background()
	g := gen.Complete(8)
	targets := []graph.Edge{graph.NewEdge(0, 1)}
	live, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	st, err := live.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != nil || st.Warm != nil {
		t.Fatalf("unrun session should snapshot without index/warm state: %+v", st)
	}
	restored, err := Restore(cloneState(st))
	if err != nil {
		t.Fatal(err)
	}
	if restored.IndexBuilds() != 0 {
		t.Fatalf("restore of an unrun session should not build an index, got %d", restored.IndexBuilds())
	}
	lr, err := live.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Protectors) != len(rr.Protectors) {
		t.Fatalf("first-run divergence: %d vs %d protectors", len(lr.Protectors), len(rr.Protectors))
	}
}

// TestRestoreStateMismatch: a snapshot whose invariants contradict the
// rebuilt index must be rejected, never served.
func TestRestoreStateMismatch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbertTriad(60, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 3, rng)
	live, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Run(ctx); err != nil {
		t.Fatal(err)
	}
	base, err := live.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(name string, mutate func(*SessionState)) {
		st := cloneState(base)
		ix := *base.Index
		st.Index = &ix
		if base.Warm != nil {
			w := *base.Warm
			st.Warm = &w
		}
		mutate(st)
		if _, err := Restore(st); !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("%s: Restore error = %v, want ErrStateMismatch", name, err)
		}
	}
	tamper("gain crc", func(st *SessionState) { st.Index.GainCRC ^= 1 })
	tamper("universe", func(st *SessionState) { st.Index.Universe++ })
	tamper("instances", func(st *SessionState) { st.Index.Instances-- })
	tamper("similarity", func(st *SessionState) { st.Index.TotalSimilarity++ })
	if base.Warm != nil {
		tamper("warm gains length", func(st *SessionState) { st.Warm.Gains = st.Warm.Gains[:0] })
	}
}

// TestRestoreValidates: option and target validation runs on the restore
// path exactly as on New.
func TestRestoreValidates(t *testing.T) {
	g := gen.Complete(6)
	st := &SessionState{
		Pattern:  motif.Triangle,
		Method:   "no-such-method",
		Division: DivisionTBD,
		Graph:    g,
		Targets:  []graph.Edge{graph.NewEdge(0, 1)},
	}
	if _, err := Restore(st); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("bad method: Restore error = %v, want ErrUnknownMethod", err)
	}
	st2 := &SessionState{
		Pattern:  motif.Triangle,
		Method:   MethodSGB,
		Division: DivisionTBD,
		Graph:    gen.Complete(6),
		Targets:  []graph.Edge{graph.NewEdge(0, 120)},
	}
	if _, err := Restore(st2); err == nil {
		t.Fatal("target outside graph: Restore should fail")
	}
}
