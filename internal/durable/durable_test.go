package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
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
	if h.Seq() != 3 || h.entries != 3 {
		t.Fatalf("handle seq=%d entries=%d after 3 appends", h.Seq(), h.entries)
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

// TestStoreIDsAndExists pins IDs and the unknown-id answer of Recover,
// which replaced the separate existence probe: an id with no log is an
// error wrapping fs.ErrNotExist, the one answer a lazy lookup turns into
// a 404.
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
	// Files that are not session logs are not sessions.
	if err := os.WriteFile(dir+"/notes.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "s-a" || ids[1] != "s-b" {
		t.Fatalf("IDs() = %v", ids)
	}
	_, _, h, err := st.Recover("s-a")
	if err != nil {
		t.Fatalf("Recover misses a persisted session: %v", err)
	}
	h.Close()
	for _, id := range []string{"s-gone", "../escape", ""} {
		if _, _, _, err := st.Recover(id); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Recover(%q) error = %v, want fs.ErrNotExist", id, err)
		}
	}
	if _, err := st.Create(&SessionSnapshot{ID: "bad/id", State: testState(t, 5)}); err == nil {
		t.Fatal("Create accepted a path-escaping id")
	}
	if _, err := st.Create(testSnapshot(t, "s-a", 5)); err == nil {
		t.Fatal("Create overwrote an existing session's log")
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
	if h.entries != 0 || h.ShouldCompact() {
		t.Fatalf("after compaction: entries=%d", h.entries)
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
// entries past the snapshot, so the entry count accumulates across residencies
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
		if snap.Seq != 0 || len(entries) != appended || h.entries != appended || h.Seq() != uint64(appended) {
			t.Fatalf("after %d appends: watermark %d, %d tail entries, entries=%d, Seq()=%d",
				appended, snap.Seq, len(entries), h.entries, h.Seq())
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
	if got.Seq != compactEvery || len(entries) != 0 || h.entries != 0 {
		t.Fatalf("after compaction: watermark %d, %d tail entries, entries=%d; want %d/0/0",
			got.Seq, len(entries), h.entries, compactEvery)
	}
}

// walSizes appends n deltas and returns the log's size after its first
// snapshot frame and after each append — the frame boundaries the
// torn-tail and corruption tests cut at.
func walSizes(t *testing.T, st *Store, id string, h *Session, n int) []int64 {
	t.Helper()
	sizes := make([]int64, 0, n+1)
	stat := func() {
		fi, err := os.Stat(st.logPath(id))
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

// TestRecoverTornTail: damage confined to the log's final frame is the
// shape a crash mid-append leaves. Recovery truncates it and keeps every
// frame before it, whether the torn frame is a delta or a snapshot. A tear
// that leaves no intact snapshot frame at all (a crash inside Create,
// before the session was ever acked) has nothing to recover:
// ErrCorruptSnapshot, and the caller quarantines it.
func TestRecoverTornTail(t *testing.T) {
	// lastSnapshot appends a snapshot frame at seq 3, the log's state after
	// its three deltas, for the rows that tear it.
	lastSnapshot := func(t *testing.T, data []byte) []byte {
		snap := testSnapshot(t, "s-torn", 17)
		snap.Seq = 3
		return appendSnapshotFrame(append([]byte(nil), data...), snap)
	}
	cases := []struct {
		name string
		// mangle reshapes the log bytes given the frame boundaries.
		mangle      func(t *testing.T, data []byte, sizes []int64) []byte
		wantEntries int
		wantErr     error // non-nil: recovery must fail with this
	}{
		{"mid frame header", func(t *testing.T, data []byte, s []int64) []byte { return data[:s[2]+4] }, 2, nil},
		{"mid payload", func(t *testing.T, data []byte, s []int64) []byte { return data[:s[2]+frameHdrLen+3] }, 2, nil},
		{"checksum damage", func(t *testing.T, data []byte, s []int64) []byte {
			out := append([]byte(nil), data...)
			out[s[2]+frameHdrLen] ^= 0xFF
			return out
		}, 2, nil},
		{"torn snapshot frame", func(t *testing.T, data []byte, s []int64) []byte {
			return lastSnapshot(t, data)[:s[3]+frameHdrLen+100]
		}, 3, nil},
		{"damaged last snapshot frame", func(t *testing.T, data []byte, s []int64) []byte {
			out := lastSnapshot(t, data)
			out[s[3]+frameHdrLen+100] ^= 0xFF
			return out
		}, 3, nil},
		{"torn first snapshot", func(t *testing.T, data []byte, s []int64) []byte { return data[:s[0]-1] }, 0, ErrCorruptSnapshot},
		{"empty file", func(t *testing.T, data []byte, s []int64) []byte { return nil }, 0, ErrCorruptSnapshot},
		{"short header", func(t *testing.T, data []byte, s []int64) []byte { return data[:3] }, 0, ErrCorruptSnapshot},
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

			raw, err := os.ReadFile(st.logPath("s-torn"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.logPath("s-torn"), tc.mangle(t, raw, sizes), 0o644); err != nil {
				t.Fatal(err)
			}

			snap, entries, h2, err := st.Recover("s-torn")
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Recover error = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			if snap.Seq != 0 || len(entries) != tc.wantEntries {
				t.Fatalf("recovered snapshot seq %d + %d entries, want 0 + %d", snap.Seq, len(entries), tc.wantEntries)
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

// TestRecoverCorruptWAL: damage no crash mid-append explains is
// corruption, typed for quarantine. That includes a checksum failure in
// any frame but the last: a bit flip in the snapshot frame must never
// pass for a torn tail, which would silently truncate the acked deltas
// after it.
func TestRecoverCorruptWAL(t *testing.T) {
	frameWith := func(payload []byte) []byte {
		buf := make([]byte, frameHdrLen, frameHdrLen+len(payload))
		buf = append(buf, payload...)
		putFrameHeader(buf, payload)
		return buf
	}
	flip := func(data []byte, at int64) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0xFF
		return out
	}
	cases := []struct {
		name   string
		mangle func(t *testing.T, data []byte, sizes []int64) []byte
		want   error
	}{
		{"bad magic", func(t *testing.T, data []byte, s []int64) []byte { return flip(data, 0) }, ErrCorruptWAL},
		{"unknown version", func(t *testing.T, data []byte, s []int64) []byte {
			out := append([]byte(nil), data...)
			out[4] = 9
			return out
		}, ErrCorruptWAL},
		{"sequence gap", func(t *testing.T, data []byte, s []int64) []byte {
			d, labels := testDelta(7)
			return appendFrame(append([]byte(nil), data...), 9, labels, d)
		}, ErrCorruptWAL},
		{"stale frame after live one", func(t *testing.T, data []byte, s []int64) []byte {
			d, labels := testDelta(7)
			return appendFrame(append([]byte(nil), data...), 1, labels, d)
		}, ErrCorruptWAL},
		{"checksummed garbage delta", func(t *testing.T, data []byte, s []int64) []byte {
			var payload []byte
			payload = appendUvarintForTest(payload, 3) // next seq
			payload = appendUvarintForTest(payload, 0) // no labels
			payload = append(payload, 0xFF, 0xFF)      // not a delta
			return append(append([]byte(nil), data...), frameWith(payload)...)
		}, ErrCorruptWAL},
		{"hostile label count", func(t *testing.T, data []byte, s []int64) []byte {
			var payload []byte
			payload = appendUvarintForTest(payload, 3)
			payload = appendUvarintForTest(payload, 1<<40)
			return append(append([]byte(nil), data...), frameWith(payload)...)
		}, ErrCorruptWAL},
		{"damaged snapshot frame before deltas", func(t *testing.T, data []byte, s []int64) []byte {
			return flip(data, logHeaderLen+frameHdrLen+100)
		}, ErrCorruptSnapshot},
		{"damaged delta frame before the last", func(t *testing.T, data []byte, s []int64) []byte {
			return flip(data, s[0]+frameHdrLen)
		}, ErrCorruptWAL},
		{"delta frame before any snapshot", func(t *testing.T, data []byte, s []int64) []byte {
			return append(appendLogHeader(nil), data[s[0]:]...)
		}, ErrCorruptWAL},
		{"snapshot out of sequence", func(t *testing.T, data []byte, s []int64) []byte {
			snap := testSnapshot(t, "s-corrupt", 19)
			snap.Seq = 7
			return appendSnapshotFrame(append([]byte(nil), data...), snap)
		}, ErrCorruptWAL},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir, Options{})
			h, err := st.Create(testSnapshot(t, "s-corrupt", 19))
			if err != nil {
				t.Fatal(err)
			}
			sizes := walSizes(t, st, "s-corrupt", h, 2)
			h.Close()
			raw, err := os.ReadFile(st.logPath("s-corrupt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.logPath("s-corrupt"), tc.mangle(t, raw, sizes), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err = st.Recover("s-corrupt"); !errors.Is(err, tc.want) {
				t.Fatalf("Recover error = %v, want %v", err, tc.want)
			}
		})
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

	raw, err := os.ReadFile(st.logPath("s-sick"))
	if err != nil {
		t.Fatal(err)
	}
	raw[logHeaderLen+frameHdrLen+100] ^= 0xFF // inside the snapshot frame
	if err := os.WriteFile(st.logPath("s-sick"), raw, 0o644); err != nil {
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
	if _, _, _, err := st.Recover("s-sick"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("quarantined session still recoverable: %v", err)
	}
	got, err := os.ReadFile(dir + "/" + quarantineDir + "/s-sick" + logSuffix)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("quarantine copy missing or altered: %v", err)
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
	if _, _, _, err := st.Recover("s-del"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("destroyed session still recoverable: %v", err)
	}
	// Removing twice is fine: a missing log is not an error.
	if err := st.Remove("s-del"); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
}

// TestOpenRemovesStaleTemp: a rewrite's temp file, and the older layout's
// snapshot temp, are debris of a crash; Open sweeps both.
func TestOpenRemovesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	for _, stale := range []string{dir + "/s-crashed" + logSuffix + tmpSuffix, dir + "/s-old.snap.tmp"} {
		if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		openTestStore(t, dir, Options{})
		if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale temp %s survived Open: %v", stale, err)
		}
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

// TestRecoverAppendAfterRewrite: a snapshot that rewrites the log leaves
// the handle on the new file, so a delta appended after it is what the
// next recovery replays — also while the writer still holds the handle, as
// after a crash.
func TestRecoverAppendAfterRewrite(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-rewrite", 2)
	st := openTestStore(t, dir, Options{SyncWrites: true})
	_, _, h, err := st.Recover("s-rewrite")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	snap := primeRewrite(t, h)
	before := h.size
	if err := h.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if h.size >= before {
		t.Fatalf("log grew %d -> %d bytes: the snapshot appended instead of rewriting", before, h.size)
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	got, entries, h2, err := openTestStore(t, dir, Options{}).Recover("s-rewrite")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got.Seq != 2 || len(entries) != 1 || entries[0].Seq != 3 || !deltasEqual(entries[0].Delta, d) {
		t.Fatalf("after rewrite + append: watermark %d, entries %+v; want 2 and the appended seq 3", got.Seq, entries)
	}
	raw, err := os.ReadFile(st.logPath("s-rewrite"))
	if err != nil {
		t.Fatal(err)
	}
	if want := logHeaderLen + frameHdrLen + len(EncodeSnapshot(nil, snap)) + len(appendFrame(nil, 3, labels, d)); len(raw) != want {
		t.Fatalf("rewritten log is %d bytes, want header + one snapshot + one delta = %d", len(raw), want)
	}
}

// legacyFixtureDir holds one session in the older two-file layout, as that
// layout's writer left it: session legacyID created from
// testSnapshot(_, legacyID, 47), deltas testDelta(0..1) logged, a spill
// snapshot at seq 2 that left the WAL alone, then testDelta(2..4). Its
// .snap is at seq 2 and its .wal holds frames 1-5, the first two stale.
// That writer's recovery returned the .snap's snapshot and the frames
// with seq 3, 4 and 5.
const (
	legacyFixtureDir = "testdata/legacy-pair"
	legacyID         = "s-legacy"
)

// copyLegacyFixture copies the legacy pair into a fresh directory.
func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{legacyID + ".snap", legacyID + ".wal"} {
		raw, err := os.ReadFile(filepath.Join(legacyFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoverLegacyPair: Open converts a legacy pair into a log that
// recovers to what the pair recovered to, removes the pair, is idempotent,
// and, when both layouts are present, keeps the log.
func TestRecoverLegacyPair(t *testing.T) {
	dir := copyLegacyFixture(t)
	wantSnap, err := os.ReadFile(filepath.Join(legacyFixtureDir, legacyID+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, wantEntries int) []byte {
		t.Helper()
		st := openTestStore(t, dir, Options{})
		for _, name := range []string{legacyID + ".snap", legacyID + ".wal"} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: legacy %s survived Open: %v", stage, name, err)
			}
		}
		if ids, err := st.IDs(); err != nil || len(ids) != 1 || ids[0] != legacyID {
			t.Fatalf("%s: IDs() = %v, %v", stage, ids, err)
		}
		snap, entries, h, err := st.Recover(legacyID)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer h.Close()
		if !bytes.Equal(EncodeSnapshot(nil, snap), wantSnap) {
			t.Fatalf("%s: recovered snapshot differs from the legacy .snap", stage)
		}
		if snap.Seq != 2 || len(entries) != wantEntries || h.Seq() != uint64(2+wantEntries) {
			t.Fatalf("%s: watermark %d, %d entries, handle at %d; want 2, %d, %d",
				stage, snap.Seq, len(entries), h.Seq(), wantEntries, 2+wantEntries)
		}
		for i, e := range entries {
			d, labels := testDelta(i + 2)
			if e.Seq != uint64(i+3) || !slices.Equal(e.Labels, labels) || !deltasEqual(e.Delta, d) {
				t.Fatalf("%s: entry %d = seq %d %v, want seq %d %v", stage, i, e.Seq, e.Labels, i+3, labels)
			}
		}
		raw, err := os.ReadFile(st.logPath(legacyID))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	converted := check("converted", 3)
	if again := check("reopened", 3); !bytes.Equal(again, converted) {
		t.Fatal("a second Open rewrote the converted log")
	}

	// Advance the log past the pair, then put the pair back as a crash
	// between the conversion's rename and its removal of the pair leaves
	// it: the log wins and the pair goes.
	st := openTestStore(t, dir, Options{})
	_, _, h, err := st.Recover(legacyID)
	if err != nil {
		t.Fatal(err)
	}
	d, labels := testDelta(5)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	h.Close()
	for _, name := range []string{legacyID + ".snap", legacyID + ".wal"} {
		raw, _ := os.ReadFile(filepath.Join(legacyFixtureDir, name))
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check("both layouts", 4)

	// A pair that does not parse is quarantined whole, and an orphaned WAL
	// with it.
	dir = copyLegacyFixture(t)
	raw, _ := os.ReadFile(filepath.Join(dir, legacyID+".snap"))
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, legacyID+".snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-orphan.wal"), legacyWALMagic[:], 0o644); err != nil {
		t.Fatal(err)
	}
	st = openTestStore(t, dir, Options{})
	if ids, err := st.IDs(); err != nil || len(ids) != 0 {
		t.Fatalf("corrupt pairs converted: %v, %v", ids, err)
	}
	for _, name := range []string{legacyID + ".snap", legacyID + ".wal", "s-orphan.wal"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
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
