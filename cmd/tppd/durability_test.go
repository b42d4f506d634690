package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// sessionLogPath is where a store in dir keeps session id's log.
func sessionLogPath(dir, id string) string { return filepath.Join(dir, id+".tpplog") }

// newDurableTestServer starts a service persisting sessions into dir and
// rehydrates whatever is already there, returning the rehydrated /
// quarantined counts alongside the handles.
func newDurableTestServer(t *testing.T, dir string, ttl time.Duration, opts durable.Options) (*Server, *httptest.Server, int, int) {
	t.Helper()
	srv := NewServer(2, 1<<20, 30*time.Second, 0, ttl)
	t.Cleanup(srv.Close)
	opts.Metrics = srv.durableMetrics()
	store, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored, quarantined, err := srv.ConfigureDurability(context.Background(), store, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, restored, quarantined
}

// stats is a GET /v1/stats reply: each member's /metrics sample name,
// label block included, to its value.
type stats map[string]float64

func getStats(t *testing.T, ts *httptest.Server) stats {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var st stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// n returns the member for sample name as an integer. A name the reply
// lacks is a mistake in the test, not a zero, so it panics.
func (st stats) n(name string) int64 {
	v, ok := st[name]
	if !ok {
		panic(fmt.Sprintf("GET /v1/stats has no member %q", name))
	}
	return int64(v)
}

// Sample names the tests read from GET /v1/stats.
const (
	warmRunsSeries = `tppd_selection_runs_total{mode="warm"}`
	coldRunsSeries = `tppd_selection_runs_total{mode="cold"}`
)

func getSessionInfo(t *testing.T, ts *httptest.Server, id string) sessionResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, body)
	}
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func mustProtect(t *testing.T, ts *httptest.Server, id, step string) protectResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out protectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustDelta(t *testing.T, ts *httptest.Server, id string, req deltaRequest, step string) deltaResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out deltaResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func protectParity(t *testing.T, stage string, got, want protectResponse) {
	t.Helper()
	if got.WarmStart != want.WarmStart {
		t.Fatalf("%s: warm_start %v, control %v", stage, got.WarmStart, want.WarmStart)
	}
	if len(got.Protectors) != len(want.Protectors) {
		t.Fatalf("%s: %d protectors, control %d", stage, len(got.Protectors), len(want.Protectors))
	}
	for i := range want.Protectors {
		if got.Protectors[i] != want.Protectors[i] {
			t.Fatalf("%s: protector %d = %v, control %v", stage, i, got.Protectors[i], want.Protectors[i])
		}
	}
	if got.InitialSimilarity != want.InitialSimilarity || got.FinalSimilarity != want.FinalSimilarity {
		t.Fatalf("%s: similarities %d→%d, control %d→%d",
			stage, got.InitialSimilarity, got.FinalSimilarity, want.InitialSimilarity, want.FinalSimilarity)
	}
}

// driveSession applies the deterministic workload every restart-parity test
// shares: a warm-up protect, a structural delta, a protect, a node-churn
// delta.
func driveSession(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	mustProtect(t, ts, id, "warm-up protect")
	mustDelta(t, ts, id, deltaRequest{
		Insert: [][2]string{{"1", "7"}, {"3", "5"}},
		Remove: [][2]string{{"8", "9"}},
	}, "delta 1")
	mustProtect(t, ts, id, "mid protect")
	mustDelta(t, ts, id, deltaRequest{
		AddNodes:   []string{"alice"},
		Insert:     [][2]string{{"alice", "0"}, {"alice", "1"}},
		AddTargets: [][2]string{{"3", "6"}},
	}, "delta 2")
}

// TestDurableRestartParity is the tentpole's end-to-end guarantee: stop a
// server (graceful spill), boot a fresh one on the same directory, and the
// rehydrated session is indistinguishable — same metadata, same selections
// bit for bit — from a control session that lived through the same history
// in memory.
func TestDurableRestartParity(t *testing.T) {
	dir := t.TempDir()

	srvA, tsA, restored, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	if restored != 0 {
		t.Fatalf("fresh dir rehydrated %d sessions", restored)
	}
	id := createQuickstartSession(t, tsA)
	driveSession(t, tsA, id)
	infoA := getSessionInfo(t, tsA, id)
	tsA.Close()
	srvA.Close() // graceful shutdown: spills the final snapshot

	// The control session replays the same history in one uninterrupted
	// process.
	_, tsC := newSessionTestServer(t, 0)
	ctl := createQuickstartSession(t, tsC)
	driveSession(t, tsC, ctl)

	srvB, tsB, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	if restored != 1 || quarantined != 0 {
		t.Fatalf("restart rehydrated %d / quarantined %d, want 1 / 0", restored, quarantined)
	}
	if got := srvB.metrics.sessionsRehydrated.Load(); got != 1 {
		t.Fatalf("sessions_rehydrated metric = %d, want 1", got)
	}

	infoB := getSessionInfo(t, tsB, id)
	if infoB.Nodes != infoA.Nodes || infoB.Edges != infoA.Edges ||
		infoB.Runs != infoA.Runs || infoB.DeltasApplied != infoA.DeltasApplied ||
		len(infoB.Targets) != len(infoA.Targets) {
		t.Fatalf("rehydrated info %+v, pre-restart %+v", infoB, infoA)
	}
	for i := range infoA.Targets {
		if infoB.Targets[i] != infoA.Targets[i] {
			t.Fatalf("rehydrated target %d = %v, pre-restart %v", i, infoB.Targets[i], infoA.Targets[i])
		}
	}

	// The next protect — and the one after a further shared delta — must
	// match the control bit for bit, warm-start behaviour included.
	protectParity(t, "protect after restart",
		mustProtect(t, tsB, id, "protect after restart"),
		mustProtect(t, tsC, ctl, "control protect"))
	extra := deltaRequest{Insert: [][2]string{{"alice", "2"}}}
	mustDelta(t, tsB, id, extra, "post-restart delta")
	mustDelta(t, tsC, ctl, extra, "control post-restart delta")
	protectParity(t, "protect after shared delta",
		mustProtect(t, tsB, id, "protect after shared delta"),
		mustProtect(t, tsC, ctl, "control protect 2"))
}

// TestDurableLazyRehydrate: TTL eviction spills the session to disk, and
// the next request for its id brings it back transparently — the client
// never sees the eviction.
func TestDurableLazyRehydrate(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 50*time.Millisecond, durable.Options{SyncWrites: false})
	id := createQuickstartSession(t, ts)
	first := mustProtect(t, ts, id, "protect before eviction")

	// Wait for the janitor to spill + evict. Polling the map directly: a GET
	// would itself rehydrate and reset the idle clock.
	deadline := time.Now().Add(5 * time.Second)
	for srv.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not evicted before deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}

	info := getSessionInfo(t, ts, id)
	if info.ID != id || info.Nodes != 10 || info.Runs != 1 {
		t.Fatalf("rehydrated session info %+v", info)
	}
	if got := srv.metrics.sessionsRehydrated.Load(); got < 1 {
		t.Fatalf("sessions_rehydrated = %d, want >= 1", got)
	}
	// An unchanged graph warm-starts even across the spill/rehydrate cycle:
	// the warm selection rode the snapshot.
	second := mustProtect(t, ts, id, "protect after rehydrate")
	if !second.WarmStart {
		t.Fatalf("protect after rehydrate did not warm-start: %+v", second)
	}
	protectParity(t, "rehydrated warm replay", protectResponse{
		WarmStart:         true,
		Protectors:        second.Protectors,
		InitialSimilarity: second.InitialSimilarity,
		FinalSimilarity:   second.FinalSimilarity,
	}, protectResponse{
		WarmStart:         true,
		Protectors:        first.Protectors,
		InitialSimilarity: first.InitialSimilarity,
		FinalSimilarity:   first.FinalSimilarity,
	})
	st := getStats(t, ts)
	if got := st.n("tpp_sessions_rehydrated_total"); got < 1 {
		t.Fatalf("stats tpp_sessions_rehydrated_total = %d, want >= 1", got)
	}
}

// TestDurableDeleteRemovesFiles: DELETE destroys the persisted bytes too —
// a deleted session must not resurrect on restart.
func TestDurableDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta")
	if _, err := os.Stat(sessionLogPath(dir, id)); err != nil {
		t.Fatalf("created session has no log: %v", err)
	}
	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(sessionLogPath(dir, id)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted session still has a log on disk: %v", err)
	}
	// Not lazily rehydratable either.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
	srv.Close()
	_, _, restored, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	if restored != 0 {
		t.Fatalf("deleted session resurrected: %d rehydrated", restored)
	}
}

// TestDurableQuarantineOnCorrupt: a damaged snapshot must not take the
// server down — the session is quarantined aside, counted, and everything
// else keeps serving.
func TestDurableQuarantineOnCorrupt(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	sick := createQuickstartSession(t, tsA)
	healthy := createQuickstartSession(t, tsA)
	tsA.Close()
	srvA.Close()

	raw, err := os.ReadFile(sessionLogPath(dir, sick))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(sessionLogPath(dir, sick), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	if restored != 1 || quarantined != 1 {
		t.Fatalf("rehydrated %d / quarantined %d, want 1 / 1", restored, quarantined)
	}
	if got := srvB.metrics.sessionsQuarantined.Load(); got != 1 {
		t.Fatalf("sessions_quarantined metric = %d, want 1", got)
	}
	resp, _ := doJSON(t, http.MethodGet, tsB.URL+"/v1/sessions/"+sick, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined session answered %d, want 404", resp.StatusCode)
	}
	if info := getSessionInfo(t, tsB, healthy); info.Nodes != 10 {
		t.Fatalf("healthy session damaged by neighbour's quarantine: %+v", info)
	}
	if _, err := os.Stat(sessionLogPath(filepath.Join(dir, "quarantine"), sick)); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}
	if got := getStats(t, tsB).n("tpp_sessions_quarantined_total"); got != 1 {
		t.Fatalf("stats tpp_sessions_quarantined_total = %d, want 1", got)
	}
}

// TestDurableCompactionThreshold: a fresh snapshot lands in the log at the
// configured threshold, and recovery afterwards replays only the tail.
// No protect ever ran, so the session stays clean and the graceful
// shutdown writes no snapshot of its own: the tail survives it as a delta
// frame and a restarted server replays it.
func TestDurableCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false, CompactEvery: 2})
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta 1")
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"3", "5"}}}, "delta 2") // triggers compaction
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "9"}}}, "delta 3")
	st := getStats(t, ts)
	if got := st.n("tpp_wal_appends_total"); got != 3 {
		t.Fatalf("tpp_wal_appends_total = %d, want 3", got)
	}
	// Create snapshot + compaction snapshot at least.
	if got := st.n("tpp_snapshot_bytes_count"); got < 2 {
		t.Fatalf("tpp_snapshot_bytes_count = %d, want >= 2", got)
	}
	if got := st.n("tpp_snapshot_bytes_sum"); got <= 0 {
		t.Fatalf("tpp_snapshot_bytes_sum = %d, want > 0", got)
	}
	ts.Close()
	srv.Close()

	// Inspect the store directly: the snapshot watermark moved to 2 at
	// compaction, and the clean shutdown spill left it there, so exactly
	// delta 3 replays.
	store, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, entries, h, err := store.Recover(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 || len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("after compaction + clean spill: watermark %d with %d tail entries (%+v), want 2 with exactly seq 3",
			snap.Seq, len(entries), entries)
	}
	if snap.Runs != 0 || snap.State.DeltasApplied != 2 {
		t.Fatalf("compaction snapshot carries runs=%d deltas=%d, want 0/2", snap.Runs, snap.State.DeltasApplied)
	}

	// A server rehydrated from the directory replays the tail back in.
	_, ts2, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false, CompactEvery: 2})
	if restored != 1 || quarantined != 0 {
		t.Fatalf("restart: %d restored, %d quarantined, want 1/0", restored, quarantined)
	}
	if got := getSessionInfo(t, ts2, id).DeltasApplied; got != 3 {
		t.Fatalf("rehydrated deltas_applied = %d, want 3", got)
	}
}

// TestDurableWALFsyncStats: with sync writes on, the fsync histogram and
// stats surface account for every append.
func TestDurableWALFsyncStats(t *testing.T) {
	dir := t.TempDir()
	_, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: true})
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta")
	st := getStats(t, ts)
	if st.n("tpp_wal_appends_total") != 1 || st.n("tpp_wal_fsync_seconds_count") != 1 || st["tpp_wal_fsync_seconds_sum"] < 0 {
		t.Fatalf("stats %v, want one WAL append with one fsync", st)
	}
}

// TestShutdownWedgedSession: a session whose slot never frees must not hang
// shutdown — it is skipped after the bounded wait and the others still
// spill.
func TestShutdownWedgedSession(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	wedgedID := createQuickstartSession(t, ts)
	okID := createQuickstartSession(t, ts)
	defer func(d time.Duration) { closeTimeout = d }(closeTimeout)
	closeTimeout = 100 * time.Millisecond

	// Wedge one session by holding its slot like a stuck handler would.
	rec, err := srv.lookup(context.Background(), wedgedID)
	if err != nil || rec == nil {
		t.Fatalf("acquire: rec=%v err=%v", rec, err)
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a wedged session")
	}
	// The healthy session was spilled and removed; the wedged one was
	// skipped and is still registered.
	if srv.open() != 1 {
		t.Fatalf("store holds %d sessions after close, want the 1 wedged", srv.open())
	}
	if _, err := os.Stat(sessionLogPath(dir, okID)); err != nil {
		t.Fatalf("healthy session log missing after shutdown spill: %v", err)
	}
	srv.release(rec)

	// A later restart serves the healthy session from its shutdown spill and
	// the wedged one from its last snapshot (creation-time here).
	ts.Close()
	_, tsB, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	if restored != 2 || quarantined != 0 {
		t.Fatalf("restart rehydrated %d / quarantined %d, want 2 / 0", restored, quarantined)
	}
	if info := getSessionInfo(t, tsB, okID); info.Nodes != 10 {
		t.Fatalf("healthy session info %+v", info)
	}
}

// faultFS is the os filesystem with three one-shot faults a test can arm:
// failWAL fails the next write to any session log, failSnap the next
// creation of a log rewrite's temp file, failSyncDir the next directory
// fsync.
type faultFS struct {
	failWAL     atomic.Bool
	failSnap    atomic.Bool
	failSyncDir atomic.Bool
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	if strings.HasSuffix(name, ".tmp") && f.failSnap.CompareAndSwap(true, false) {
		return nil, errors.New("injected: rewrite temp create failed")
	}
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".tpplog") {
		return &faultWAL{File: file, fs: f}, nil
	}
	return file, nil
}

func (*faultFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (*faultFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (*faultFS) Remove(name string) error                     { return os.Remove(name) }
func (*faultFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (*faultFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (*faultFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (f *faultFS) SyncDir(name string) error {
	if f.failSyncDir.CompareAndSwap(true, false) {
		return errors.New("injected: directory fsync failed")
	}
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

type faultWAL struct {
	*os.File
	fs *faultFS
}

func (w *faultWAL) Write(p []byte) (int, error) {
	if w.fs.failWAL.CompareAndSwap(true, false) {
		return 0, errors.New("injected: log write failed")
	}
	return w.File.Write(p)
}

// evictNow spills and drops one resident session exactly as LRU reclaim
// and TTL eviction do: evict under its record slot.
func evictNow(t *testing.T, srv *Server, id string) {
	t.Helper()
	rec, err := srv.lookup(context.Background(), id)
	if err != nil || rec == nil {
		t.Fatalf("lookup %s: rec=%v err=%v", id, rec, err)
	}
	srv.evict(rec)
	<-rec.slot
}

// TestSpillDegradedSession: a session whose log append failed holds a
// delta its log lacks. Its next delta re-persists it whole first, and so
// does a spill — never leaving the stale log to be rehydrated as a silent
// rollback — and when even that fails, the stale log is quarantined so the
// next touch answers 404.
func TestSpillDegradedSession(t *testing.T) {
	ffs := &faultFS{}
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{FS: ffs})
	id := createQuickstartSession(t, ts)
	base := getSessionInfo(t, ts, id)

	// The first append fails: the delta is live but not logged (500), and
	// the session degrades to memory-only. The next delta re-persists it
	// and is acked.
	ffs.failWAL.Store(true)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		AddNodes: []string{"x1"},
		Insert:   [][2]string{{"x1", "0"}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delta on failing log: status %d, want 500: %s", resp.StatusCode, body)
	}
	mustDelta(t, ts, id, deltaRequest{AddNodes: []string{"x2"}, Insert: [][2]string{{"x2", "1"}}}, "degraded delta")
	before := getSessionInfo(t, ts, id)
	if before.Nodes != base.Nodes+2 || before.DeltasApplied != 2 {
		t.Fatalf("before spill: nodes=%d deltas_applied=%d, want %d/2", before.Nodes, before.DeltasApplied, base.Nodes+2)
	}

	evictNow(t, srv, id)
	after := getSessionInfo(t, ts, id) // rehydrates from disk
	if after.Nodes != before.Nodes || after.Edges != before.Edges || after.DeltasApplied != before.DeltasApplied {
		t.Fatalf("spill rolled the session back: nodes=%d edges=%d deltas_applied=%d, before spill %d/%d/%d",
			after.Nodes, after.Edges, after.DeltasApplied, before.Nodes, before.Edges, before.DeltasApplied)
	}
	// Rehydrated, the session is durable again: deltas log and protect runs.
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"x1", "x2"}}}, "delta after rehydrate")
	mustProtect(t, ts, id, "protect after rehydrate")

	// Degrade it again, and make the re-persist fail too: the stale files
	// must leave the store so the id stops naming a servable session.
	ffs.failWAL.Store(true)
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"x1", "5"}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second delta on failing log: status %d, want 500: %s", resp.StatusCode, body)
	}
	ffs.failSnap.Store(true)
	evictNow(t, srv, id)
	if resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after a failed re-persist: status %d, want 404: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(sessionLogPath(filepath.Join(dir, "quarantine"), id)); err != nil {
		t.Fatalf("stale log not quarantined: %v", err)
	}
}

// TestDeleteDegradedSession: deleting a session whose log append failed
// must remove its log too, though it no longer holds a handle; otherwise
// the next touch rehydrates the deleted session from it.
func TestDeleteDegradedSession(t *testing.T) {
	ffs := &faultFS{}
	_, ts, _, _ := newDurableTestServer(t, t.TempDir(), 0, durable.Options{FS: ffs})
	id := createQuickstartSession(t, ts)
	ffs.failWAL.Store(true)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"1", "7"}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delta on failing log: status %d, want 500: %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after delete: status %d, want 404: %s", resp.StatusCode, body)
	}
}

// degradeByFailedAppend arms one log-write failure and sends a delta into
// it: the delta is applied in memory but not logged (500), and the session
// degrades to memory-only.
func degradeByFailedAppend(t *testing.T, ffs *faultFS, ts *httptest.Server, id string) {
	t.Helper()
	ffs.failWAL.Store(true)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		AddNodes: []string{"x1"},
		Insert:   [][2]string{{"x1", "0"}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delta on failing log: status %d, want 500: %s", resp.StatusCode, body)
	}
}

// TestDegradedDeltaRepersists: a degraded session never acks a delta its
// log lacks. Its next delta first rewrites the log whole from memory, so a
// server booted on the same directory without a graceful shutdown (a
// crash) recovers every delta that was acked.
func TestDegradedDeltaRepersists(t *testing.T) {
	ffs := &faultFS{}
	dir := t.TempDir()
	_, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{FS: ffs})
	id := createQuickstartSession(t, ts)
	degradeByFailedAppend(t, ffs, ts, id)
	mustDelta(t, ts, id, deltaRequest{AddNodes: []string{"x2"}, Insert: [][2]string{{"x2", "1"}}}, "delta on degraded session")
	acked := getSessionInfo(t, ts, id)

	// Crash: boot a second server on the directory while the first still
	// holds its handles and never spilled.
	_, ts2, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{})
	if restored != 1 || quarantined != 0 {
		t.Fatalf("crash restart: %d restored, %d quarantined, want 1/0", restored, quarantined)
	}
	got := getSessionInfo(t, ts2, id)
	if got.DeltasApplied != acked.DeltasApplied || got.Nodes != acked.Nodes || got.Edges != acked.Edges {
		t.Fatalf("after crash: deltas_applied=%d nodes=%d edges=%d, acked state %d/%d/%d",
			got.DeltasApplied, got.Nodes, got.Edges, acked.DeltasApplied, acked.Nodes, acked.Edges)
	}
}

// TestDegradedDeltaRefused: when a degraded session cannot be re-persisted,
// its next delta is refused with a non-2xx that says it was not applied,
// and the session is untouched; once the log can be rewritten again, the
// same delta goes through.
func TestDegradedDeltaRefused(t *testing.T) {
	ffs := &faultFS{}
	_, ts, _, _ := newDurableTestServer(t, t.TempDir(), 0, durable.Options{FS: ffs})
	id := createQuickstartSession(t, ts)
	degradeByFailedAppend(t, ffs, ts, id)

	before := getSessionInfo(t, ts, id)
	ffs.failSnap.Store(true)
	delta := deltaRequest{AddNodes: []string{"x2"}, Insert: [][2]string{{"x2", "1"}}}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", delta)
	if resp.StatusCode/100 == 2 || !strings.Contains(string(body), "not applied") {
		t.Fatalf("delta on an unpersistable session: status %d %s, want a non-2xx saying not applied", resp.StatusCode, body)
	}
	if info := getSessionInfo(t, ts, id); info.Nodes != before.Nodes || info.Edges != before.Edges || info.DeltasApplied != before.DeltasApplied {
		t.Fatalf("refused delta changed the session: %+v, before %+v", info, before)
	}
	if got := mustDelta(t, ts, id, delta, "retried delta"); got.NodesAdded != 1 {
		t.Fatalf("retried delta added %d nodes, want 1", got.NodesAdded)
	}
}

// TestCreateDirSyncFailureLeavesNoLog: a create whose directory fsync
// fails is answered 500, so no client holds its id; its log must go too,
// or the next boot would revive a session nobody was given.
func TestCreateDirSyncFailureLeavesNoLog(t *testing.T) {
	ffs := &faultFS{}
	dir := t.TempDir()
	_, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{FS: ffs})
	ffs.failSyncDir.Store(true)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create on a failing dir fsync: status %d, want 500: %s", resp.StatusCode, body)
	}
	if logs, err := filepath.Glob(filepath.Join(dir, "*.tpplog")); err != nil || len(logs) != 0 {
		t.Fatalf("logs left by the failed create: %v (err %v)", logs, err)
	}
	if _, _, restored, quarantined := newDurableTestServer(t, dir, 0, durable.Options{}); restored != 0 || quarantined != 0 {
		t.Fatalf("restart: %d restored, %d quarantined, want 0/0", restored, quarantined)
	}
}

// holdFS is the os filesystem with the first ReadFile of one path held:
// that read closes entered, then waits for release.
type holdFS struct {
	faultFS
	hold    atomic.Value // string: the path whose first read is held
	reads   atomic.Int32 // reads of that path
	entered chan struct{}
	release chan struct{}
}

func (f *holdFS) ReadFile(name string) ([]byte, error) {
	if name == f.hold.Load() && f.reads.Add(1) == 1 {
		close(f.entered)
		<-f.release
	}
	return os.ReadFile(name)
}

func newHoldFS() *holdFS {
	return &holdFS{entered: make(chan struct{}), release: make(chan struct{})}
}

// getStatus GETs a session with client and returns the status, or 0 when
// the request failed.
func getStatus(client *http.Client, ts *httptest.Server, id string) int {
	resp, err := client.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestLazyLoadsDoNotSerialise: a slow log read delays only the requests
// for its own id. While spilled session A's read is held, a GET of spilled
// session B answers 200 inside a 2 s client timeout, and A answers once
// its read goes on.
func TestLazyLoadsDoNotSerialise(t *testing.T) {
	hfs := newHoldFS()
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{FS: hfs})
	a, b := createQuickstartSession(t, ts), createQuickstartSession(t, ts)
	evictNow(t, srv, a)
	evictNow(t, srv, b)
	hfs.hold.Store(sessionLogPath(dir, a))
	var release sync.Once
	defer release.Do(func() { close(hfs.release) })

	gotA := make(chan int, 1)
	go func() { gotA <- getStatus(http.DefaultClient, ts, a) }()
	select {
	case <-hfs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("A's log read never started")
	}
	if code := getStatus(&http.Client{Timeout: 2 * time.Second}, ts, b); code != http.StatusOK {
		t.Fatalf("GET of B while A's log read is held: status %d, want 200 (0 = timed out)", code)
	}
	release.Do(func() { close(hfs.release) })
	if code := <-gotA; code != http.StatusOK {
		t.Fatalf("GET of A after its read went on: status %d, want 200", code)
	}
}

// TestConcurrentLazyLoadOnce: concurrent requests for one spilled id share
// one load: all 16 answer 200, the log is read once and the session is
// rehydrated once.
func TestConcurrentLazyLoadOnce(t *testing.T) {
	hfs := newHoldFS()
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{FS: hfs})
	id := createQuickstartSession(t, ts)
	evictNow(t, srv, id)
	hfs.hold.Store(sessionLogPath(dir, id))
	before := srv.metrics.sessionsRehydrated.Load()

	// Hold the first read until the other requests have had time to queue
	// behind it.
	codes := make([]int, 16)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = getStatus(http.DefaultClient, ts, id)
		}()
	}
	select {
	case <-hfs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the log read never started")
	}
	time.Sleep(50 * time.Millisecond)
	close(hfs.release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("GET %d: status %d, want 200", i, code)
		}
	}
	if got := srv.metrics.sessionsRehydrated.Load() - before; got != 1 {
		t.Errorf("sessions_rehydrated rose by %d, want 1", got)
	}
	if got := hfs.reads.Load(); got != 1 {
		t.Errorf("log read %d times, want 1", got)
	}
}

// TestCancelledLookupKeepsSession: a client that gives up while its lookup
// rehydrates a spilled session must not destroy it. The log tail replays
// under a context the client cannot cancel, so nothing is quarantined and
// the next GET finds the session with its delta.
func TestCancelledLookupKeepsSession(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta")
	evictNow(t, srv, id)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec, err := srv.lookup(ctx, id); err == nil && rec != nil {
		srv.release(rec)
	}
	if info := getSessionInfo(t, ts, id); info.DeltasApplied != 1 {
		t.Fatalf("session after a cancelled lookup: %+v, want deltas_applied 1", info)
	}
	if got := srv.metrics.sessionsQuarantined.Load(); got != 0 {
		t.Fatalf("sessions_quarantined = %d, want 0", got)
	}
}

// TestRehydratedProtectCountsOneSelection: a rehydrated session restores
// its selection history, and its next protect adds exactly one selection
// to warm_runs+cold_runs, never that history again.
func TestRehydratedProtectCountsOneSelection(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, dir, 0, durable.Options{SyncWrites: false})
	id := createQuickstartSession(t, ts)
	mustProtect(t, ts, id, "first protect")
	mustProtect(t, ts, id, "second protect")
	evictNow(t, srv, id)
	getSessionInfo(t, ts, id) // rehydrates from disk

	before := getStats(t, ts)
	mustProtect(t, ts, id, "protect after rehydrate")
	after := getStats(t, ts)
	if got := after.n(warmRunsSeries) + after.n(coldRunsSeries) - before.n(warmRunsSeries) - before.n(coldRunsSeries); got != 1 {
		t.Fatalf("one protect after rehydrate added %d to warm_runs+cold_runs, want 1", got)
	}
}
