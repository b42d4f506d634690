package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// testState builds a real, run-once tpp session state — the thing the
// snapshot format exists to carry. The borrowed slices are deep-copied so
// the state outlives the protector it came from.
func testState(tb testing.TB, seed int64) *tpp.SessionState {
	tb.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbertTriad(80, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	pr, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pr.Run(ctx); err != nil {
		tb.Fatal(err)
	}
	st, err := pr.Snapshot(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	st.Graph = st.Graph.Clone()
	st.Targets = append([]graph.Edge(nil), st.Targets...)
	if st.Warm != nil {
		w := *st.Warm
		w.Protectors = append([]graph.Edge(nil), w.Protectors...)
		w.Gains = append([]int(nil), w.Gains...)
		w.Touched = append([]graph.Edge(nil), w.Touched...)
		st.Warm = &w
	}
	if st.Index != nil {
		ix := *st.Index
		st.Index = &ix
	}
	return st
}

// testSnapshot wraps a real session state in the serving metadata cmd/tppd
// persists alongside it.
func testSnapshot(tb testing.TB, id string, seed int64) *SessionSnapshot {
	tb.Helper()
	st := testState(tb, seed)
	labels := make([]string, st.Graph.NumNodes())
	for i := range labels {
		labels[i] = "node-" + strconv.Itoa(i)
	}
	return &SessionSnapshot{
		ID:            id,
		Seq:           0,
		Created:       time.Unix(1700000000, 123456789),
		Runs:          1,
		DefaultBudget: 8,
		Labels:        labels,
		State:         st,
	}
}

// testDelta builds the i-th deterministic delta plus the labels of the node
// it adds. Store-level tests never replay these through a session, so any
// well-formed delta will do.
func testDelta(i int) (dynamic.Delta, []string) {
	d := dynamic.Delta{
		Insert:   []graph.Edge{graph.NewEdge(graph.NodeID(i), graph.NodeID(i+1))},
		AddNodes: 1,
	}
	return d, []string{"extra-" + strconv.Itoa(i)}
}

func deltasEqual(a, b dynamic.Delta) bool {
	return bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		ra, rb := a.NeighborsView(graph.NodeID(u)), b.NeighborsView(graph.NodeID(u))
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func openTestStore(tb testing.TB, dir string, opts Options) *Store {
	tb.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot(t, "s-roundtrip", 7)
	snap.Seq = 42
	enc := EncodeSnapshot(nil, snap)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != snap.Seq {
		t.Errorf("seq: got %d, want %d", got.Seq, snap.Seq)
	}
	if got.Created.UnixNano() != snap.Created.UnixNano() {
		t.Errorf("created: got %v, want %v", got.Created, snap.Created)
	}
	if got.Runs != snap.Runs || got.DefaultBudget != snap.DefaultBudget {
		t.Errorf("metadata: got runs=%d budget=%d, want runs=%d budget=%d",
			got.Runs, got.DefaultBudget, snap.Runs, snap.DefaultBudget)
	}
	if len(got.Labels) != len(snap.Labels) {
		t.Fatalf("labels: got %d, want %d", len(got.Labels), len(snap.Labels))
	}
	for i := range got.Labels {
		if got.Labels[i] != snap.Labels[i] {
			t.Fatalf("label %d: got %q, want %q", i, got.Labels[i], snap.Labels[i])
		}
	}

	g, w := got.State, snap.State
	if g.Pattern != w.Pattern || g.Method != w.Method || g.Division != w.Division ||
		g.Budget != w.Budget || g.Engine != w.Engine || g.Scope != w.Scope ||
		g.Workers != w.Workers || g.Seed != w.Seed || g.WarmOff != w.WarmOff {
		t.Errorf("options diverge: got %+v, want %+v", g, w)
	}
	if !graphsEqual(g.Graph, w.Graph) {
		t.Error("graph does not round-trip")
	}
	if !edgesEqual(g.Targets, w.Targets) {
		t.Errorf("targets: got %v, want %v", g.Targets, w.Targets)
	}
	if g.WarmRuns != w.WarmRuns || g.ColdRuns != w.ColdRuns ||
		g.WarmFallbacks != w.WarmFallbacks || g.DeltasApplied != w.DeltasApplied {
		t.Error("counters do not round-trip")
	}
	if (g.Warm == nil) != (w.Warm == nil) {
		t.Fatalf("warm presence: got %v, want %v", g.Warm != nil, w.Warm != nil)
	}
	if g.Warm != nil {
		if g.Warm.Exhausted != w.Warm.Exhausted ||
			!edgesEqual(g.Warm.Protectors, w.Warm.Protectors) ||
			!edgesEqual(g.Warm.Touched, w.Warm.Touched) {
			t.Error("warm selection does not round-trip")
		}
		if len(g.Warm.Gains) != len(w.Warm.Gains) {
			t.Fatalf("warm gains: got %d, want %d", len(g.Warm.Gains), len(w.Warm.Gains))
		}
		for i := range g.Warm.Gains {
			if g.Warm.Gains[i] != w.Warm.Gains[i] {
				t.Fatalf("warm gain %d: got %d, want %d", i, g.Warm.Gains[i], w.Warm.Gains[i])
			}
		}
	}
	if (g.Index == nil) != (w.Index == nil) {
		t.Fatalf("index presence: got %v, want %v", g.Index != nil, w.Index != nil)
	}
	if g.Index != nil && *g.Index != *w.Index {
		t.Errorf("index invariants: got %+v, want %+v", *g.Index, *w.Index)
	}

	// The decoded state must restore into a servable session — the whole
	// point of persisting it.
	if _, err := tpp.Restore(got.State); err != nil {
		t.Fatalf("decoded state does not restore: %v", err)
	}
}

// lazyEngineFixture is a snapshot written by the encoder that still had the
// CELF engine: a default-options session after one run and one delta, so
// its engine byte is 2. Every default tppd session stored that byte.
const lazyEngineFixture = "testdata/engine-lazy-v1.snap"

// TestSnapshotRetiredLazyEngine pins snapshot compatibility across the CELF
// engine's removal: engine byte 2 decodes as EngineIndexed, the state
// restores, and its next Run is bit-identical to a fresh session's on the
// same graph.
func TestSnapshotRetiredLazyEngine(t *testing.T) {
	raw, err := os.ReadFile(lazyEngineFixture)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.Engine != tpp.EngineIndexed {
		t.Fatalf("engine = %v, want %v", snap.State.Engine, tpp.EngineIndexed)
	}
	// Re-encoding must change exactly one body byte, the engine byte, from
	// 2 to EngineIndexed; only the trailing CRC may differ besides.
	re := EncodeSnapshot(nil, snap)
	if len(re) != len(raw) {
		t.Fatalf("re-encoded length %d, want %d", len(re), len(raw))
	}
	var diff []int
	for i := range raw[:len(raw)-4] {
		if raw[i] != re[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) != 1 || raw[diff[0]] != lazyEngineByte || re[diff[0]] != byte(tpp.EngineIndexed) {
		t.Fatalf("re-encoding differs at body offsets %v, want only the engine byte 2 -> %d", diff, tpp.EngineIndexed)
	}

	ctx := context.Background()
	fresh, err := tpp.New(snap.State.Graph.Clone(), append([]graph.Edge(nil), snap.State.Targets...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := tpp.Restore(snap.State)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := restored.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !got.WarmStart {
		t.Error("restored run did not replay the stored selection")
	}
	if got.Method != want.Method || !edgesEqual(got.Protectors, want.Protectors) ||
		!slices.Equal(got.SimilarityTrace, want.SimilarityTrace) ||
		!slices.Equal(got.PerTargetFinal, want.PerTargetFinal) {
		t.Fatalf("restored run %s %v %v, fresh run %s %v %v",
			got.Method, got.Protectors, got.SimilarityTrace,
			want.Method, want.Protectors, want.SimilarityTrace)
	}
}

func TestSnapshotDecodeRejectsEveryByteFlip(t *testing.T) {
	enc := EncodeSnapshot(nil, testSnapshot(t, "s-flip", 9))
	work := make([]byte, len(enc))
	for i := range enc {
		copy(work, enc)
		work[i] ^= 0xFF
		if _, err := DecodeSnapshot(work); err == nil {
			t.Fatalf("flipping byte %d of %d decoded cleanly", i, len(enc))
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flipping byte %d: error %v does not wrap ErrCorruptSnapshot", i, err)
		}
	}
}

func TestStoreCreateRecover(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	snap := testSnapshot(t, "s-lifecycle", 3)
	h, err := st.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := 0; i < 3; i++ {
		d, labels := testDelta(i)
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Seq: uint64(i + 1), Labels: labels, Delta: d})
	}
	if h.Seq() != 3 || h.Entries() != 3 {
		t.Fatalf("handle seq=%d entries=%d after 3 appends", h.Seq(), h.Entries())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	got, entries, h2, err := st.Recover("s-lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got.ID != "s-lifecycle" || got.Seq != 0 {
		t.Fatalf("recovered snapshot id=%q seq=%d", got.ID, got.Seq)
	}
	if !graphsEqual(got.State.Graph, snap.State.Graph) {
		t.Fatal("recovered graph diverges")
	}
	if len(entries) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Seq != want[i].Seq {
			t.Fatalf("entry %d: seq %d, want %d", i, e.Seq, want[i].Seq)
		}
		if len(e.Labels) != 1 || e.Labels[0] != want[i].Labels[0] {
			t.Fatalf("entry %d: labels %v, want %v", i, e.Labels, want[i].Labels)
		}
		if !deltasEqual(e.Delta, want[i].Delta) {
			t.Fatalf("entry %d: delta does not round-trip", i)
		}
	}
	if h2.Seq() != 3 {
		t.Fatalf("recovered handle at seq %d, want 3", h2.Seq())
	}

	// The recovered handle keeps appending where the old one stopped.
	d, labels := testDelta(3)
	if err := h2.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	h2.Close()
	_, entries, h3, err := st.Recover("s-lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if len(entries) != 4 || entries[3].Seq != 4 {
		t.Fatalf("after append-on-recovered: %d entries, last seq %d", len(entries), entries[len(entries)-1].Seq)
	}
}

func TestStoreIDsAndExists(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	for _, id := range []string{"s-b", "s-a"} {
		h, err := st.Create(testSnapshot(t, id, 5))
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	// An orphaned WAL (snapshot lost) must still surface as an ID.
	if err := os.WriteFile(st.walPath("s-orphan"), appendWALHeader(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "s-a" || ids[1] != "s-b" || ids[2] != "s-orphan" {
		t.Fatalf("IDs() = %v", ids)
	}
	if !st.Exists("s-a") || !st.Exists("s-orphan") {
		t.Fatal("Exists misses persisted sessions")
	}
	if st.Exists("s-gone") || st.Exists("../escape") || st.Exists("") {
		t.Fatal("Exists invents sessions")
	}
	if _, err := st.Create(&SessionSnapshot{ID: "bad/id", State: testState(t, 5)}); err == nil {
		t.Fatal("Create accepted a path-escaping id")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{CompactEvery: 2})
	h, err := st.Create(testSnapshot(t, "s-compact", 13))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d, labels := testDelta(i)
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
	}
	if !h.ShouldCompact() {
		t.Fatal("2 entries at CompactEvery=2 should trigger compaction")
	}
	snap2 := testSnapshot(t, "s-compact", 13)
	snap2.Seq = h.Seq()
	if err := h.Compact(snap2); err != nil {
		t.Fatal(err)
	}
	if h.Entries() != 0 || h.ShouldCompact() {
		t.Fatalf("after compaction: entries=%d", h.Entries())
	}
	// Seq mismatch between snapshot and log is refused outright.
	bad := testSnapshot(t, "s-compact", 13)
	bad.Seq = 99
	if err := h.Compact(bad); err == nil {
		t.Fatal("Compact accepted a snapshot at the wrong seq")
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	h.Close()

	got, entries, h2, err := st.Recover("s-compact")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got.Seq != 2 {
		t.Fatalf("recovered snapshot watermark %d, want 2", got.Seq)
	}
	if len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("after compaction recovery should replay only seq 3, got %+v", entries)
	}
}

// TestEntriesCountAcrossResidencies pins the replay bound a close-only
// spill relies on: a handle closed and recovered again re-counts the WAL
// entries past the snapshot, so Entries() accumulates across residencies
// and ShouldCompact fires at CompactEvery however many close/recover
// cycles the entries were spread over.
func TestEntriesCountAcrossResidencies(t *testing.T) {
	const compactEvery, perResidency = 5, 2
	st := openTestStore(t, t.TempDir(), Options{CompactEvery: compactEvery})
	const id = "s-residencies"
	h, err := st.Create(testSnapshot(t, id, 17))
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for !h.ShouldCompact() {
		for i := 0; i < perResidency && !h.ShouldCompact(); i++ {
			d, labels := testDelta(appended)
			if err := h.AppendDelta(d, labels); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		snap, entries, h2, err := st.Recover(id)
		if err != nil {
			t.Fatal(err)
		}
		h = h2
		if snap.Seq != 0 || len(entries) != appended || h.Entries() != appended || h.Seq() != uint64(appended) {
			t.Fatalf("after %d appends: watermark %d, %d tail entries, Entries()=%d, Seq()=%d",
				appended, snap.Seq, len(entries), h.Entries(), h.Seq())
		}
		if got, want := h.ShouldCompact(), appended >= compactEvery; got != want {
			t.Fatalf("after %d appends over several residencies: ShouldCompact=%v, want %v", appended, got, want)
		}
	}
	if appended != compactEvery {
		t.Fatalf("compaction fired after %d entries, want %d", appended, compactEvery)
	}
	snap := testSnapshot(t, id, 17)
	snap.Seq = h.Seq()
	if err := h.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	got, entries, h, err := st.Recover(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got.Seq != compactEvery || len(entries) != 0 || h.Entries() != 0 {
		t.Fatalf("after compaction: watermark %d, %d tail entries, Entries()=%d; want %d/0/0",
			got.Seq, len(entries), h.Entries(), compactEvery)
	}
}

// walSizes appends n deltas and returns the WAL file size after the header
// and after each append — the frame boundaries the torn-tail tests cut at.
func walSizes(t *testing.T, st *Store, id string, h *Session, n int) []int64 {
	t.Helper()
	sizes := make([]int64, 0, n+1)
	stat := func() {
		fi, err := os.Stat(st.walPath(id))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	stat()
	for i := 0; i < n; i++ {
		d, labels := testDelta(i)
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
		stat()
	}
	return sizes
}

func TestRecoverTornTail(t *testing.T) {
	cases := []struct {
		name string
		// mangle reshapes the WAL bytes given the frame boundaries.
		mangle      func(data []byte, sizes []int64) []byte
		wantEntries int
	}{
		{"mid frame header", func(data []byte, s []int64) []byte { return data[:s[2]+4] }, 2},
		{"mid payload", func(data []byte, s []int64) []byte { return data[:s[2]+frameHdrLen+3] }, 2},
		{"checksum damage", func(data []byte, s []int64) []byte {
			out := append([]byte(nil), data...)
			out[s[2]+frameHdrLen] ^= 0xFF
			return out
		}, 2},
		{"empty file", func(data []byte, s []int64) []byte { return nil }, 0},
		{"short header", func(data []byte, s []int64) []byte { return data[:3] }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir, Options{SyncWrites: true})
			h, err := st.Create(testSnapshot(t, "s-torn", 17))
			if err != nil {
				t.Fatal(err)
			}
			sizes := walSizes(t, st, "s-torn", h, 3)
			h.Close()

			raw, err := os.ReadFile(st.walPath("s-torn"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.walPath("s-torn"), tc.mangle(raw, sizes), 0o644); err != nil {
				t.Fatal(err)
			}

			_, entries, h2, err := st.Recover("s-torn")
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			if len(entries) != tc.wantEntries {
				t.Fatalf("recovered %d entries, want %d", len(entries), tc.wantEntries)
			}
			if h2.Seq() != uint64(tc.wantEntries) {
				t.Fatalf("recovered handle at seq %d, want %d", h2.Seq(), tc.wantEntries)
			}
			// The tear is gone: appends continue and a second recovery sees a
			// clean log one entry longer.
			d, labels := testDelta(9)
			if err := h2.AppendDelta(d, labels); err != nil {
				t.Fatal(err)
			}
			h2.Close()
			_, entries, h3, err := st.Recover("s-torn")
			if err != nil {
				t.Fatal(err)
			}
			defer h3.Close()
			if len(entries) != tc.wantEntries+1 {
				t.Fatalf("after healing append: %d entries, want %d", len(entries), tc.wantEntries+1)
			}
			if last := entries[len(entries)-1]; last.Seq != uint64(tc.wantEntries+1) || !deltasEqual(last.Delta, d) {
				t.Fatalf("healing append misrecovered: %+v", last)
			}
		})
	}
}

func TestRecoverCorruptWAL(t *testing.T) {
	frameWith := func(payload []byte) []byte {
		buf := make([]byte, frameHdrLen, frameHdrLen+len(payload))
		buf = append(buf, payload...)
		putFrameHeader(buf, payload)
		return buf
	}
	cases := []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"bad magic", func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[0] ^= 0xFF
			return out
		}},
		{"unknown version", func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[4] = 9
			return out
		}},
		{"sequence gap", func(data []byte) []byte {
			d, labels := testDelta(7)
			return appendFrame(append([]byte(nil), data...), 9, labels, d)
		}},
		{"stale frame after live one", func(data []byte) []byte {
			d, labels := testDelta(7)
			return appendFrame(append([]byte(nil), data...), 1, labels, d)
		}},
		{"checksummed garbage delta", func(data []byte) []byte {
			var payload []byte
			payload = appendUvarintForTest(payload, 3) // next seq
			payload = appendUvarintForTest(payload, 0) // no labels
			payload = append(payload, 0xFF, 0xFF)      // not a delta
			return append(append([]byte(nil), data...), frameWith(payload)...)
		}},
		{"hostile label count", func(data []byte) []byte {
			var payload []byte
			payload = appendUvarintForTest(payload, 3)
			payload = appendUvarintForTest(payload, 1<<40)
			return append(append([]byte(nil), data...), frameWith(payload)...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir, Options{})
			h, err := st.Create(testSnapshot(t, "s-corrupt", 19))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				d, labels := testDelta(i)
				if err := h.AppendDelta(d, labels); err != nil {
					t.Fatal(err)
				}
			}
			h.Close()
			raw, err := os.ReadFile(st.walPath("s-corrupt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.walPath("s-corrupt"), tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err = st.Recover("s-corrupt")
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("Recover error = %v, want ErrCorruptWAL", err)
			}
		})
	}
}

func TestRecoverStaleWALPrefix(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	h, err := st.Create(testSnapshot(t, "s-stale", 23))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d, labels := testDelta(i)
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
	}
	// A spill snapshot advances the watermark without resetting the WAL —
	// the same on-disk shape as a crash between compaction's rename and
	// truncate.
	snap := testSnapshot(t, "s-stale", 23)
	snap.Seq = h.Seq()
	if err := h.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	h.Close()

	got, entries, h2, err := st.Recover("s-stale")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || len(entries) != 0 {
		t.Fatalf("stale prefix should replay nothing: seq=%d entries=%d", got.Seq, len(entries))
	}
	if h2.Seq() != 2 {
		t.Fatalf("handle resumes at seq %d, want 2", h2.Seq())
	}
	// Recovery finished the interrupted truncate.
	fi, err := os.Stat(st.walPath("s-stale"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != walHeaderLen {
		t.Fatalf("stale WAL not truncated: %d bytes", fi.Size())
	}
	d, labels := testDelta(5)
	if err := h2.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	h2.Close()
	_, entries, h3, err := st.Recover("s-stale")
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("post-truncate append misrecovered: %+v", entries)
	}
}

func TestRecoverMissingSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	if err := os.WriteFile(st.walPath("s-orphan"), appendWALHeader(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := st.Recover("s-orphan")
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("orphaned WAL: Recover error = %v, want ErrCorruptSnapshot", err)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	h, err := st.Create(testSnapshot(t, "s-sick", 29))
	if err != nil {
		t.Fatal(err)
	}
	d, labels := testDelta(0)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	h.Close()

	raw, err := os.ReadFile(st.snapPath("s-sick"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(st.snapPath("s-sick"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Recover("s-sick"); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Recover error = %v, want ErrCorruptSnapshot", err)
	}
	if err := st.Quarantine("s-sick"); err != nil {
		t.Fatal(err)
	}
	ids, err := st.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("quarantined session still listed: %v", ids)
	}
	if st.Exists("s-sick") {
		t.Fatal("quarantined session still Exists")
	}
	for _, suffix := range []string{snapSuffix, walSuffix} {
		if _, err := os.Stat(dir + "/" + quarantineDir + "/s-sick" + suffix); err != nil {
			t.Fatalf("quarantine copy %s missing: %v", suffix, err)
		}
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	h, err := st.Create(testSnapshot(t, "s-del", 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Destroy(); err != nil {
		t.Fatal(err)
	}
	if st.Exists("s-del") {
		t.Fatal("destroyed session still Exists")
	}
	// Removing twice is fine: missing files are not an error.
	if err := st.Remove("s-del"); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
}

func TestOpenRemovesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	stale := dir + "/s-crashed" + tmpSuffix
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTestStore(t, dir, Options{})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

// TestWALAppendAllocs pins the zero-alloc append contract: once the frame
// buffer has grown to steady state, committing a delta allocates nothing.
func TestWALAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{SyncWrites: false})
	h, err := st.Create(testSnapshot(t, "s-alloc", 37))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	d, labels := testDelta(0)
	if err := h.AppendDelta(d, labels); err != nil { // grow the buffer once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state AppendDelta allocates %.1f times per call, want 0", allocs)
	}
}

// putFrameHeader backfills a frame's length + CRC header — for tests that
// hand-craft payloads appendFrame would never produce.
func putFrameHeader(frame, payload []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

func appendUvarintForTest(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}
