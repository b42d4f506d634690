package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// newShardedDurableServer starts a durable service partitioned into the
// given shard count under the given total memory budget.
func newShardedDurableServer(t *testing.T, dir string, shards int, memBudget int64) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(4, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	if err := srv.ConfigureSharding(shards, memBudget); err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(dir, durable.Options{SyncWrites: false, Metrics: srv.durableMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	srv.ConfigureDurability(store)
	if _, _, err := srv.Rehydrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// measureSessionFootprint reports the tracked byte footprint of one
// quickstart session, read from a throwaway server's resident-bytes
// accounting (which runs even without a budget cap). Spill tests size their
// budgets from it instead of hard-coding bytes that drift with the sizing
// model.
func measureSessionFootprint(t *testing.T) int64 {
	t.Helper()
	_, ts := newSessionTestServer(t, 0)
	createQuickstartSession(t, ts)
	f := getStats(t, ts).ResidentBytes
	if f <= 0 {
		t.Fatalf("resident_bytes %d after one session; accounting is broken", f)
	}
	return f
}

// scaleoutProtect asks for a deterministic selection (fixed seed, one
// worker) so results compare bit-for-bit across servers.
func scaleoutProtect(t *testing.T, ts *httptest.Server, id, step string) protectResponse {
	t.Helper()
	seed := int64(7)
	workers := 1
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect",
		sessionProtectRequest{Seed: &seed, Workers: &workers})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out protectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardSpillParity pins the tentpole's correctness bar: a session
// placed on an arbitrary shard of a memory-budgeted 4-shard tier — spilled
// to its snapshot by filler traffic and lazily rehydrated — selects
// protectors bit-identical to a plain single-process control running the
// same request sequence.
func TestShardSpillParity(t *testing.T) {
	f := measureSessionFootprint(t)

	// Per-shard budget of 1.5 sessions: any second session arriving on a
	// shard must spill the colder one, but a lone session (even grown by a
	// few delta edges) is always admitted.
	const shards = 4
	subjectSrv, subject := newShardedDurableServer(t, t.TempDir(), shards, shards*(f+f/2))
	_, control := newSessionTestServer(t, 0)

	run := func(ts *httptest.Server) (string, []protectResponse) {
		id := createQuickstartSession(t, ts)
		var outs []protectResponse
		mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}, {"3", "6"}}}, "delta-1")
		outs = append(outs, scaleoutProtect(t, ts, id, "protect-1"))
		return id, outs
	}
	subjectID, subjectOuts := run(subject)
	controlID, controlOuts := run(control)

	// Filler sessions drive the subject out of memory: each create on the
	// subject's shard must reclaim budget, and the subject is the coldest
	// resident there. 40 fillers over 4 shards make a miss astronomically
	// unlikely; the spill counter below proves it happened.
	for i := 0; i < 40; i++ {
		createQuickstartSession(t, subject)
	}
	if st := getStats(t, subject); st.SessionsSpilled == 0 {
		t.Fatalf("no sessions spilled with %d fillers over budget %d; stats %+v", 40, shards*(f+f/2), st)
	} else if st.MemBudgetBytes > 0 && st.ResidentBytes > st.MemBudgetBytes {
		t.Errorf("resident %d bytes exceeds budget %d with no concurrent load", st.ResidentBytes, st.MemBudgetBytes)
	}

	// The subject session now rehydrates from its snapshot+WAL on touch;
	// the control stayed resident the whole time. Same deltas, same
	// protects, on both.
	finish := func(ts *httptest.Server, id string, outs []protectResponse) []protectResponse {
		outs = append(outs, scaleoutProtect(t, ts, id, "protect-2"))
		mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"0", "8"}}}, "delta-2")
		outs = append(outs, scaleoutProtect(t, ts, id, "protect-3"))
		return outs
	}
	subjectOuts = finish(subject, subjectID, subjectOuts)
	controlOuts = finish(control, controlID, controlOuts)

	for i := range controlOuts {
		want, got := controlOuts[i], subjectOuts[i]
		if fmt.Sprint(want.Protectors) != fmt.Sprint(got.Protectors) {
			t.Errorf("protect %d: sharded+spilled protectors %v, single-process control %v", i+1, got.Protectors, want.Protectors)
		}
		if want.FinalSimilarity != got.FinalSimilarity || want.InitialSimilarity != got.InitialSimilarity {
			t.Errorf("protect %d: similarity (%d→%d) vs control (%d→%d)", i+1,
				got.InitialSimilarity, got.FinalSimilarity, want.InitialSimilarity, want.FinalSimilarity)
		}
	}
	_ = subjectSrv
}

// spillAll forces every resident session out through the shards' LRU
// reclaim path, as if a create needing each shard's whole budget arrived.
func spillAll(srv *Server) {
	for _, sh := range srv.sessions.shards {
		srv.reclaimBudget(sh, sh.budget.Cap(), "")
	}
}

// TestSpillCleanDirtyParity: a spill writes only what snapshot + WAL lack.
// A session with no protect since its last snapshot spills by closing its
// WAL (no snapshot written, the .snap untouched byte for byte); one a
// protect left dirty writes exactly one snapshot. Either way the session
// rehydrates indistinguishable from a never-spilled control.
func TestSpillCleanDirtyParity(t *testing.T) {
	dir := t.TempDir()
	srv, subject := newShardedDurableServer(t, dir, 1, 1<<30)
	_, control := newSessionTestServer(t, 0)
	subjectID := createQuickstartSession(t, subject)
	controlID := createQuickstartSession(t, control)
	snapPath := filepath.Join(dir, subjectID+".snap")

	readSnap := func() []byte {
		t.Helper()
		b, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spill := func(stage string, dirty bool) {
		t.Helper()
		before := getStats(t, subject)
		snapBefore := readSnap()
		spillAll(srv)
		after := getStats(t, subject)
		if after.SessionsSpilled != before.SessionsSpilled+1 {
			t.Fatalf("%s: sessions_spilled %d → %d, want one spill", stage, before.SessionsSpilled, after.SessionsSpilled)
		}
		want := before.SnapshotsWritten
		if dirty {
			want++
		}
		if after.SnapshotsWritten != want {
			t.Fatalf("%s: snapshots_written %d → %d, want %d (dirty=%v)",
				stage, before.SnapshotsWritten, after.SnapshotsWritten, want, dirty)
		}
		if !dirty && !bytes.Equal(readSnap(), snapBefore) {
			t.Fatalf("%s: a clean spill rewrote the snapshot", stage)
		}
	}
	delta := func(stage string, req deltaRequest) {
		t.Helper()
		mustDelta(t, subject, subjectID, req, stage)
		mustDelta(t, control, controlID, req, stage)
	}
	protect := func(stage string, warm bool) {
		t.Helper()
		got := scaleoutProtect(t, subject, subjectID, stage)
		want := scaleoutProtect(t, control, controlID, stage)
		protectParity(t, stage, got, want)
		if got.WarmStart != warm {
			t.Fatalf("%s: warm_start %v, want %v", stage, got.WarmStart, warm)
		}
		g, w := getSessionInfo(t, subject, subjectID), getSessionInfo(t, control, controlID)
		if g.Runs != w.Runs || g.DeltasApplied != w.DeltasApplied {
			t.Fatalf("%s: runs=%d deltas_applied=%d, control %d/%d", stage, g.Runs, g.DeltasApplied, w.Runs, w.DeltasApplied)
		}
	}

	delta("delta-1", deltaRequest{Insert: [][2]string{{"1", "7"}, {"3", "6"}}})
	spill("spill after create+delta", false)
	protect("protect-1", false)
	spill("spill after protect", true)
	delta("delta-2", deltaRequest{AddNodes: []string{"n"}, Insert: [][2]string{{"n", "9"}, {"n", "6"}}})
	spill("spill after rehydrate+delta", false)
	// The warm state came back from the dirty spill's snapshot and absorbed
	// the delta replayed from the WAL after the clean one.
	protect("protect-2", true)
}

// TestSpillRaceSmoke hammers one session with concurrent deltas and
// protects while filler creates force LRU spills on every shard, under the
// race detector in CI. The pinned contract: the hammered session is never
// served half-spilled — every request answers 200 (or a clean 429), never
// a 404 or 5xx, and a spill happened.
func TestSpillRaceSmoke(t *testing.T) {
	f := measureSessionFootprint(t)
	const shards = 4
	srv, ts := newShardedDurableServer(t, t.TempDir(), shards, shards*(f+f/2))

	subject := createQuickstartSession(t, ts)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	const hammers = 3
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				node := fmt.Sprintf("h%d-%d", g, i)
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+subject+"/delta", deltaRequest{
					AddNodes: []string{node},
					Insert:   [][2]string{{node, "0"}, {node, "5"}},
				})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					report("hammer %d delta %d: status %d: %s", g, i, resp.StatusCode, body)
				}
				if i%3 == 0 {
					resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+subject+"/protect", sessionProtectRequest{})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						report("hammer %d protect %d: status %d: %s", g, i, resp.StatusCode, body)
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", protectRequest{
				Edges:   quickstartEdges,
				Targets: [][2]string{{"0", "5"}, {"2", "7"}},
				Pattern: "Triangle",
			})
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusTooManyRequests {
				report("filler %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
	}()
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}

	// The session must still answer after the storm, and spills must have
	// actually exercised the rehydrate path during it.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+subject, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subject after the storm: status %d: %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts); st.SessionsSpilled == 0 {
		t.Error("no sessions spilled; the race smoke never exercised spill vs delta/protect")
	}
	_ = srv
}

// BenchmarkScaleoutStore measures the session-store hot path — lookup,
// exclusive acquire, LRU touch, release — on the degenerate single-shard
// configuration (the daemon's old global mutex, in effect) versus the
// sharded tier, under full parallelism.
func benchmarkScaleoutStore(b *testing.B, nshards int) {
	ss := newSessionStore(0, nil, nshards, 64, 0)
	defer ss.close()
	const nrecs = 4096
	ids := make([]string, nrecs)
	for i := range ids {
		id := fmt.Sprintf("s-%016x", i)
		rec := &sessionRecord{id: id, slot: make(chan struct{}, 1), created: time.Now(), lastUsed: time.Now()}
		if !ss.publish(rec) {
			b.Fatalf("duplicate id %s", id)
		}
		rec.home.budget.Set(id, 1024, nil)
		ids[i] = id
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stride-offset walks keep goroutines off the same record (which
		// would measure the per-record slot, not the store).
		i := int(next.Add(7919))
		for pb.Next() {
			rec, err := ss.acquire(context.Background(), ids[i%nrecs])
			i++
			if err != nil || rec == nil {
				b.Fatalf("acquire: rec=%v err=%v", rec, err)
			}
			ss.release(rec)
		}
	})
}

func BenchmarkScaleoutStoreSingle(b *testing.B)  { benchmarkScaleoutStore(b, 1) }
func BenchmarkScaleoutStoreSharded(b *testing.B) { benchmarkScaleoutStore(b, 8) }
