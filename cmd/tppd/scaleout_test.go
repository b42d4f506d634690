package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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
	if _, _, err := srv.ConfigureDurability(context.Background(), store, memBudget); err != nil {
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
	f := getStats(t, ts).n("tpp_shard_bytes")
	if f <= 0 {
		t.Fatalf("tpp_shard_bytes %d after one session; accounting is broken", f)
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
	if st := getStats(t, subject); st.n("tppd_sessions_spilled_total") == 0 {
		t.Fatalf("no sessions spilled with %d fillers over budget %d; stats %v", 40, budget, st)
	} else if capBytes, used := st.n("tppd_mem_budget_bytes"), st.n("tpp_shard_bytes"); capBytes > 0 && used > capBytes {
		t.Errorf("resident %d bytes exceeds budget %d with no concurrent load", used, capBytes)
	}

	// The subject session now rehydrates from its log on touch;
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
	b := srv.budget
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
	b := srv.budget
	if b.Used() != b.Cap() {
		t.Fatalf("setup: %d bytes resident, want the %d-byte budget exactly full", b.Used(), b.Cap())
	}

	req := protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}, {"2", "7"}}, Pattern: "Triangle"}
	opts, err := req.options(context.Background(), srv.maxScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := req.newRecord(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c.id = mintSessionID()
	need := sessionFootprint(c)

	// The create reserves its bytes under its id and reclaims.
	c.slot <- struct{}{}
	b.Set(c.id, need, c)
	if !srv.reclaimBudget(c.id) {
		t.Fatal("create's reclaim failed with cold sessions resident")
	}
	// A resident session grows by one session's worth before the create's
	// admission check runs.
	h, err := srv.lookup(context.Background(), hot)
	if err != nil || h == nil {
		t.Fatalf("acquiring the hot session: rec=%v err=%v", h, err)
	}
	srv.accountSession(h, sessionFootprint(h)+f)
	srv.release(h)
	// The create's admission check: its reservation counted, the budget
	// must fit without this record being spilled.
	if !srv.reclaimBudget(c.id) || b.Used() > b.Cap() {
		t.Fatalf("create rejected: %d bytes resident over the %d-byte budget with cold sessions spillable", b.Used(), b.Cap())
	}
	if bytes, ok := b.Remove(c.id); !ok || bytes != need {
		t.Fatalf("create's reservation is %d bytes (tracked %v), want %d", bytes, ok, need)
	}
	<-c.slot
	if got := getStats(t, ts).n("tppd_sessions_spilled_total"); got != 2 {
		t.Errorf("tppd_sessions_spilled_total %d, want 2: one for the create's room, one for the growth", got)
	}
}

// TestSpillCleanDirtyParity: a spill writes only what the session's log
// lacks. A session with no protect since its last snapshot spills by
// closing its log, which stays byte for byte as it was; one a protect
// left dirty appends exactly one snapshot frame. Either way the session
// rehydrates indistinguishable from a never-spilled control.
func TestSpillCleanDirtyParity(t *testing.T) {
	dir := t.TempDir()
	srv, subject := newBudgetedDurableServer(t, dir, 1<<30)
	_, control := newSessionTestServer(t, 0)
	subjectID := createQuickstartSession(t, subject)
	controlID := createQuickstartSession(t, control)

	readLog := func() []byte {
		t.Helper()
		b, err := os.ReadFile(sessionLogPath(dir, subjectID))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spill := func(stage string, dirty bool) {
		t.Helper()
		before := getStats(t, subject)
		logBefore := readLog()
		spillAll(srv)
		after := getStats(t, subject)
		if after.n("tppd_sessions_spilled_total") != before.n("tppd_sessions_spilled_total")+1 {
			t.Fatalf("%s: tppd_sessions_spilled_total %d → %d, want one spill", stage,
				before.n("tppd_sessions_spilled_total"), after.n("tppd_sessions_spilled_total"))
		}
		want := before.n("tpp_snapshot_bytes_count")
		if dirty {
			want++
		}
		if got := after.n("tpp_snapshot_bytes_count"); got != want {
			t.Fatalf("%s: tpp_snapshot_bytes_count %d → %d, want %d (dirty=%v)",
				stage, before.n("tpp_snapshot_bytes_count"), got, want, dirty)
		}
		logAfter := readLog()
		if !dirty {
			if !bytes.Equal(logAfter, logBefore) {
				t.Fatalf("%s: a clean spill rewrote the log", stage)
			}
			return
		}
		// One snapshot frame: an 8-byte header whose length word has the
		// snapshot bit (31) set and counts exactly the bytes after it.
		added := logAfter[len(logBefore):]
		if !bytes.HasPrefix(logAfter, logBefore) || len(added) < 8 {
			t.Fatalf("%s: the dirty spill did not append to the log (%d → %d bytes)", stage, len(logBefore), len(logAfter))
		}
		if word := binary.LittleEndian.Uint32(added); word>>31 != 1 || int(word&^(1<<31)) != len(added)-8 {
			t.Fatalf("%s: the dirty spill appended %d bytes that are not one snapshot frame (length word %08x)", stage, len(added), word)
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
	// the delta replayed from the log after the clean one.
	protect("protect-2", true)
}

// TestSpillRaceSmoke hammers one session with concurrent deltas and
// protects while filler creates force LRU spills, under the race detector
// in CI. The pinned contract: the hammered session is never served
// half-spilled — every request answers 200 (or a clean 429), never a 404
// or 5xx, and a spill happened. The spill is certain, not hoped for: the
// filler retries each 429 until its create lands, and 40 landed creates of
// one footprint f overflow the 6f budget many times over. The hammers keep
// going until the filler is done, so every spill races a delta/protect.
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
	fillerDone := make(chan struct{})
	running := func() bool {
		select {
		case <-fillerDone:
			return false
		default:
			return true
		}
	}

	const hammers, growDeltas = 3, 30
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The first growDeltas deltas grow the subject; after that each
			// hammer toggles its own edge, so a slow filler does not grow the
			// subject (and every request's cost) without bound.
			toggle, linked := [2]string{"9", fmt.Sprint(1 + 2*g)}, false
			for i := 0; i < growDeltas || running(); i++ {
				var req deltaRequest
				switch {
				case i < growDeltas:
					node := fmt.Sprintf("h%d-%d", g, i)
					req = deltaRequest{AddNodes: []string{node}, Insert: [][2]string{{node, "0"}, {node, "5"}}}
				case linked:
					req = deltaRequest{Remove: [][2]string{toggle}}
				default:
					req = deltaRequest{Insert: [][2]string{toggle}}
				}
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+subject+"/delta", req)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					report("hammer %d delta %d: status %d: %s", g, i, resp.StatusCode, body)
				}
				if resp.StatusCode == http.StatusOK && i >= growDeltas {
					linked = !linked
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
		defer close(fillerDone)
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < 40; i++ {
			for backoff := time.Millisecond; ; backoff = min(2*backoff, 20*time.Millisecond) {
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", protectRequest{
					Edges:   quickstartEdges,
					Targets: [][2]string{{"0", "5"}, {"2", "7"}},
					Pattern: "Triangle",
				})
				if resp.StatusCode == http.StatusCreated {
					break
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					report("filler %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
				if time.Now().After(deadline) {
					report("filler %d: still 429 at the deadline: %s", i, body)
					return
				}
				time.Sleep(backoff)
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
	if getStats(t, ts).n("tppd_sessions_spilled_total") == 0 {
		t.Error("no sessions spilled; the race smoke never exercised spill vs delta/protect")
	}
}

// BenchmarkScaleoutStore measures the session-table hot path — lookup,
// exclusive slot, LRU touch, release — under full parallelism.
func BenchmarkScaleoutStore(b *testing.B) {
	srv := NewServer(64, 1<<20, time.Minute, 0, 0)
	defer srv.Close()
	const nrecs = 4096
	ids := make([]string, nrecs)
	for i := range ids {
		id := fmt.Sprintf("s-%016x", i)
		rec := &sessionRecord{id: id, slot: make(chan struct{}, 1), created: time.Now(), lastUsed: time.Now()}
		if !srv.publish(rec) {
			b.Fatalf("duplicate id %s", id)
		}
		srv.budget.Set(id, 1024, nil)
		ids[i] = id
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stride-offset walks keep goroutines off the same record (which
		// would measure the per-record slot, not the table).
		i := int(next.Add(7919))
		for pb.Next() {
			rec, err := srv.lookup(context.Background(), ids[i%nrecs])
			i++
			if err != nil || rec == nil {
				b.Fatalf("lookup: rec=%v err=%v", rec, err)
			}
			srv.release(rec)
		}
	})
}
