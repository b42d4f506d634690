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

// newBudgetedDurableServer starts a durable service under the given memory
// budget.
func newBudgetedDurableServer(t *testing.T, dir string, memBudget int64) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(4, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	store, err := durable.Open(dir, durable.Options{SyncWrites: false, Metrics: srv.durableMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	srv.ConfigureDurability(store, memBudget)
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

// TestSpillParity pins the memory budget's correctness bar: a session
// spilled to its snapshot by filler traffic and lazily rehydrated selects
// protectors bit-identical to a never-spilled control running the same
// request sequence.
func TestSpillParity(t *testing.T) {
	f := measureSessionFootprint(t)

	// A budget of six fresh sessions: the fillers below overflow it many
	// times, but the subject (even grown by a few delta edges and its
	// index) is always admitted.
	budget := 6 * f
	_, subject := newBudgetedDurableServer(t, t.TempDir(), budget)
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

	// Filler sessions drive the subject out of memory: once the budget is
	// full each create must reclaim, and the subject is the coldest
	// resident by then. The spill counter below proves spills happened.
	for i := 0; i < 40; i++ {
		createQuickstartSession(t, subject)
	}
	if st := getStats(t, subject); st.SessionsSpilled == 0 {
		t.Fatalf("no sessions spilled with %d fillers over budget %d; stats %+v", 40, budget, st)
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
			t.Errorf("protect %d: spilled protectors %v, never-spilled control %v", i+1, got.Protectors, want.Protectors)
		}
		if want.FinalSimilarity != got.FinalSimilarity || want.InitialSimilarity != got.InitialSimilarity {
			t.Errorf("protect %d: similarity (%d→%d) vs control (%d→%d)", i+1,
				got.InitialSimilarity, got.FinalSimilarity, want.InitialSimilarity, want.FinalSimilarity)
		}
	}
}

// spillAll forces every resident session out through the LRU reclaim path,
// as if a create reserving the whole budget arrived.
func spillAll(srv *Server) {
	const placeholder = "spill-all"
	b := srv.sessions.budget
	b.Set(placeholder, b.Cap(), nil)
	srv.reclaimBudget(placeholder)
	b.Remove(placeholder)
}

// TestCreateAdmissionRace drives the interleaving that used to turn a
// create into a spurious 429 while cold sessions could still spill: the
// create reclaims room, a resident session's footprint grows (as after a
// delta or a rehydrate), and only then does the create run its admission
// check. The create's reservation makes the grower's own reclaim spill for
// both, so the create is admitted, the budget holds, and the reserved
// record — its slot held — is never chosen as a victim.
func TestCreateAdmissionRace(t *testing.T) {
	f := measureSessionFootprint(t)
	srv, ts := newBudgetedDurableServer(t, t.TempDir(), 4*f)
	for i := 0; i < 3; i++ {
		createQuickstartSession(t, ts) // cold, spillable
	}
	hot := createQuickstartSession(t, ts)
	b := srv.sessions.budget
	if b.Used() != b.Cap() {
		t.Fatalf("setup: %d bytes resident, want the %d-byte budget exactly full", b.Used(), b.Cap())
	}

	req := protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}, {"2", "7"}}, Pattern: "Triangle"}
	opts, err := srv.validateProtectRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	session, lab, err := req.newSession(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c := &sessionRecord{id: mintSessionID(), slot: make(chan struct{}, 1), session: session, lab: lab}
	need := sessionFootprint(c)

	// The create reserves its bytes under its id and reclaims.
	c.slot <- struct{}{}
	b.Set(c.id, need, c)
	if !srv.reclaimBudget(c.id) {
		t.Fatal("create's reclaim failed with cold sessions resident")
	}
	// A resident session grows by one session's worth before the create's
	// admission check runs.
	h, err := srv.sessions.acquire(context.Background(), hot)
	if err != nil || h == nil {
		t.Fatalf("acquiring the hot session: rec=%v err=%v", h, err)
	}
	srv.accountSession(h, sessionFootprint(h)+f)
	srv.sessions.release(h)
	// The create's admission check: its reservation counted, the budget
	// must fit without this record being spilled.
	if !srv.reclaimBudget(c.id) || b.Used() > b.Cap() {
		t.Fatalf("create rejected: %d bytes resident over the %d-byte budget with cold sessions spillable", b.Used(), b.Cap())
	}
	if bytes, ok := b.Remove(c.id); !ok || bytes != need {
		t.Fatalf("create's reservation is %d bytes (tracked %v), want %d", bytes, ok, need)
	}
	<-c.slot
	if st := getStats(t, ts); st.SessionsSpilled != 2 {
		t.Errorf("sessions_spilled %d, want 2: one for the create's room, one for the growth", st.SessionsSpilled)
	}
}

// TestSpillCleanDirtyParity: a spill writes only what snapshot + WAL lack.
// A session with no protect since its last snapshot spills by closing its
// WAL (no snapshot written, the .snap untouched byte for byte); one a
// protect left dirty writes exactly one snapshot. Either way the session
// rehydrates indistinguishable from a never-spilled control.
func TestSpillCleanDirtyParity(t *testing.T) {
	dir := t.TempDir()
	srv, subject := newBudgetedDurableServer(t, dir, 1<<30)
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
// protects while filler creates force LRU spills, under the race detector
// in CI. The pinned contract: the hammered session is never served
// half-spilled — every request answers 200 (or a clean 429), never a 404
// or 5xx, and a spill happened.
func TestSpillRaceSmoke(t *testing.T) {
	f := measureSessionFootprint(t)
	_, ts := newBudgetedDurableServer(t, t.TempDir(), 6*f)

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
}

// BenchmarkScaleoutStore measures the session-store hot path — lookup,
// exclusive acquire, LRU touch, release — under full parallelism.
func BenchmarkScaleoutStore(b *testing.B) {
	ss := newSessionStore(0, nil, 64)
	defer ss.close()
	const nrecs = 4096
	ids := make([]string, nrecs)
	for i := range ids {
		id := fmt.Sprintf("s-%016x", i)
		rec := &sessionRecord{id: id, slot: make(chan struct{}, 1), created: time.Now(), lastUsed: time.Now()}
		if !ss.publish(rec) {
			b.Fatalf("duplicate id %s", id)
		}
		ss.budget.Set(id, 1024, nil)
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
