package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// newSessionTestServer starts a service with the given session TTL and
// returns it alongside the test HTTP front end.
func newSessionTestServer(t *testing.T, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(2, 1<<20, 30*time.Second, 0, ttl)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func doJSON(t *testing.T, method, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	var body bytes.Buffer
	if payload != nil {
		if err := json.NewEncoder(&body).Encode(payload); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func createQuickstartSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}, {"2", "7"}},
		Pattern: "Triangle",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var out sessionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding create response: %v\n%s", err, body)
	}
	if out.ID == "" || out.Nodes != 10 || out.Edges != len(quickstartEdges) {
		t.Fatalf("unexpected session info: %+v", out)
	}
	return out.ID
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)

	// Two protect calls: the second reuses the cached index.
	for i := 0; i < 2; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("protect %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out protectResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.FullProtection {
			t.Fatalf("protect %d: expected full protection: %+v", i, out)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, body)
	}
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Runs != 2 || info.IndexBuilds != 1 {
		t.Fatalf("info = %+v, want 2 runs from 1 index build", info)
	}

	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("protect after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionDeltaMatchesOneShot is the HTTP face of the parity guarantee:
// protecting after a delta must equal a one-shot protect of the mutated
// graph.
func TestSessionDeltaMatchesOneShot(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)

	// Warm the index, then mutate: drop 8-9, add 1-7 and 3-5.
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm protect: status %d: %s", resp.StatusCode, body)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"1", "7"}, {"3", "5"}},
		Remove: [][2]string{{"8", "9"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	var drep deltaResponse
	if err := json.Unmarshal(body, &drep); err != nil {
		t.Fatal(err)
	}
	if !drep.Incremental || drep.Inserted != 2 || drep.Removed != 1 {
		t.Fatalf("delta response = %+v, want incremental apply of 2+1 edges", drep)
	}
	if drep.Edges != len(quickstartEdges)+1 {
		t.Fatalf("delta response edges = %d, want %d", drep.Edges, len(quickstartEdges)+1)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect after delta: status %d: %s", resp.StatusCode, body)
	}
	var got protectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	// One-shot request on the externally mutated edge list. The original
	// edge order is preserved (insertions appended) so both graphs intern
	// node labels identically — selections are only comparable under the
	// same node numbering.
	var mutated [][2]string
	for _, e := range quickstartEdges {
		if e != [2]string{"8", "9"} {
			mutated = append(mutated, e)
		}
	}
	mutated = append(mutated, [2]string{"1", "7"}, [2]string{"3", "5"})
	resp, body = postProtect(t, ts, protectRequest{
		Edges:   mutated,
		Targets: [][2]string{{"0", "5"}, {"2", "7"}},
		Pattern: "Triangle",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot: status %d: %s", resp.StatusCode, body)
	}
	var want protectResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Protectors) != len(want.Protectors) {
		t.Fatalf("session selected %d protectors, one-shot %d", len(got.Protectors), len(want.Protectors))
	}
	for i := range want.Protectors {
		if got.Protectors[i] != want.Protectors[i] {
			t.Fatalf("protector %d: session %v, one-shot %v", i, got.Protectors[i], want.Protectors[i])
		}
	}
	if got.InitialSimilarity != want.InitialSimilarity || got.FinalSimilarity != want.FinalSimilarity {
		t.Fatalf("similarities (%d→%d) differ from one-shot (%d→%d)",
			got.InitialSimilarity, got.FinalSimilarity, want.InitialSimilarity, want.FinalSimilarity)
	}
}

func TestSessionDeltaRejections(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)
	cases := []struct {
		name string
		req  deltaRequest
	}{
		{"unknown label", deltaRequest{Insert: [][2]string{{"0", "nope"}}}},
		{"insert existing", deltaRequest{Insert: [][2]string{{"0", "1"}}}},
		{"remove absent", deltaRequest{Remove: [][2]string{{"0", "9"}}}},
		{"remove target", deltaRequest{Remove: [][2]string{{"0", "5"}}}},
		{"self loop", deltaRequest{Insert: [][2]string{{"4", "4"}}}},
		{"insert+remove conflict", deltaRequest{Insert: [][2]string{{"1", "9"}}, Remove: [][2]string{{"9", "1"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
		})
	}
	// The session must still work after every rejection.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect after rejections: status %d: %s", resp.StatusCode, body)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	srv, ts := newSessionTestServer(t, 50*time.Millisecond)
	id := createQuickstartSession(t, ts)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
		var st statsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.SessionsEvicted >= 1 && st.SessionsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted before deadline; stats %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after eviction: status %d, want 404", resp.StatusCode)
	}
	srv.Close() // idempotent with the cleanup; exercises double close
}

// TestSessionConcurrentDeltaProtect hammers one session with interleaved
// delta and protect traffic — the subsystem's race surface — covering the
// whole delta schema v2: edge toggles, node join/leave cycles and target
// add/drop cycles, each on worker-private resources so every delta is
// valid regardless of interleaving. Run under -race in CI; correctness
// here is "no 5xx, no torn state, counters add up".
func TestSessionConcurrentDeltaProtect(t *testing.T) {
	srv, ts := newSessionTestServer(t, time.Minute)
	id := createQuickstartSession(t, ts)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if w%2 == 0 {
					// Writers cycle worker-private mutations: toggle an
					// edge, then join a labelled node + promote a private
					// target, then retire both again.
					pair := [2]string{"8", fmt.Sprintf("%d", w/2)}  // 8-0, 8-2: absent initially
					tmp := fmt.Sprintf("tmp%d", w)                  // private node label
					tgt := [2]string{"9", fmt.Sprintf("%d", 3+w/2)} // 9-3, 9-4: absent, non-target
					var req deltaRequest
					switch i % 4 {
					case 0:
						req.Insert = [][2]string{pair}
					case 1:
						req.Remove = [][2]string{pair}
					case 2:
						req.AddNodes = []string{tmp}
						req.Insert = [][2]string{{tmp, "6"}}
						req.AddTargets = [][2]string{tgt}
					default:
						req.Remove = [][2]string{{tmp, "6"}}
						req.RemoveNodes = []string{tmp}
						req.DropTargets = [][2]string{tgt}
					}
					resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", req)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("writer %d round %d: status %d: %s", w, i, resp.StatusCode, body)
						return
					}
				} else {
					resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{OmitReleased: true})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("reader %d round %d: status %d: %s", w, i, resp.StatusCode, body)
						return
					}
					var out protectResponse
					if err := json.Unmarshal(body, &out); err != nil {
						errs <- fmt.Sprintf("reader %d round %d: %v", w, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		return
	}
	// Every writer ran 2 full join/leave + add/drop cycles: the aggregate
	// mutation-mix counters must balance exactly.
	m := srv.metrics
	if m.nodesAdded.Load() != 4 || m.nodesRemoved.Load() != 4 ||
		m.targetsAdded.Load() != 4 || m.targetsDropped.Load() != 4 {
		t.Fatalf("mutation mix = %d/%d/%d/%d added/removed/t-added/t-dropped, want 4 each",
			m.nodesAdded.Load(), m.nodesRemoved.Load(), m.targetsAdded.Load(), m.targetsDropped.Load())
	}
}

// TestSessionDeltaV2NodeAndTargetChurn walks the full delta schema v2
// lifecycle over HTTP: a labelled node joins with edges and a new target is
// promoted, a node departs (label retired, survivors renumbered under the
// hood but still addressable by label), the extra target is dropped again,
// and protect keeps working throughout.
func TestSessionDeltaV2NodeAndTargetChurn(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm protect: status %d: %s", resp.StatusCode, body)
	}

	// "alice" joins with two friendships; pair 3-6 becomes sensitive.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		AddNodes:   []string{"alice"},
		Insert:     [][2]string{{"alice", "0"}, {"alice", "1"}},
		AddTargets: [][2]string{{"3", "6"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 1: status %d: %s", resp.StatusCode, body)
	}
	var drep deltaResponse
	if err := json.Unmarshal(body, &drep); err != nil {
		t.Fatal(err)
	}
	if drep.NodesAdded != 1 || drep.Inserted != 2 || drep.TargetsAdded != 1 ||
		drep.Nodes != 11 || drep.Targets != 3 || !drep.Incremental {
		t.Fatalf("delta 1 response = %+v, want 1 node + 2 edges + 1 target on 11 nodes", drep)
	}

	// "9" leaves the network (its only edge removed in the same delta).
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Remove:      [][2]string{{"8", "9"}},
		RemoveNodes: []string{"9"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 2: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &drep); err != nil {
		t.Fatal(err)
	}
	if drep.NodesRemoved != 1 || drep.Removed != 1 || drep.Nodes != 10 {
		t.Fatalf("delta 2 response = %+v, want 1 node + 1 edge removed", drep)
	}

	// The retired label must be gone ...
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"9", "0"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta on retired label: status %d, want 400: %s", resp.StatusCode, body)
	}
	// ... while "alice" — renumbered under the hood by the departure —
	// stays addressable, as does the added target for dropping.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Remove:      [][2]string{{"alice", "1"}},
		DropTargets: [][2]string{{"3", "6"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 3: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &drep); err != nil {
		t.Fatal(err)
	}
	if drep.TargetsDropped != 1 || drep.Targets != 2 || drep.Removed != 1 {
		t.Fatalf("delta 3 response = %+v, want 1 target dropped back to 2", drep)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, body)
	}
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 10 || len(info.Targets) != 2 || info.DeltasApplied != 3 {
		t.Fatalf("session info = %+v, want 10 nodes / 2 targets / 3 deltas", info)
	}
	for _, tgt := range info.Targets {
		for _, lbl := range tgt {
			if lbl == "9" {
				t.Fatalf("targets %v reference the retired label 9", info.Targets)
			}
		}
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect after churn: status %d: %s", resp.StatusCode, body)
	}
	var prep protectResponse
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	// A session protect does not echo targets; GET serves them.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after protect: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !prep.FullProtection || len(info.Targets) != 2 {
		t.Fatalf("protect after churn = %+v with targets %v, want full protection of 2 targets", prep, info.Targets)
	}

	// The aggregate mutation-mix counters must have followed along.
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.NodesAdded != 1 || st.NodesRemoved != 1 || st.TargetsAdded != 1 || st.TargetsDropped != 1 {
		t.Fatalf("stats mutation mix = %+v, want 1/1/1/1", st)
	}
}

func TestSessionDeltaV2Rejections(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)
	cases := []struct {
		name string
		req  deltaRequest
	}{
		{"add existing label", deltaRequest{AddNodes: []string{"3"}}},
		{"add duplicate label", deltaRequest{AddNodes: []string{"x", "x"}}},
		{"add empty label", deltaRequest{AddNodes: []string{""}}},
		{"remove unknown label", deltaRequest{RemoveNodes: []string{"ghost"}}},
		{"remove busy node", deltaRequest{RemoveNodes: []string{"0"}}},
		{"remove same-delta arrival", deltaRequest{AddNodes: []string{"y"}, RemoveNodes: []string{"y"}}},
		{"add target existing edge", deltaRequest{AddTargets: [][2]string{{"0", "1"}}}},
		{"add target already target", deltaRequest{AddTargets: [][2]string{{"0", "5"}}}},
		{"drop non-target", deltaRequest{DropTargets: [][2]string{{"0", "1"}}}},
		{"drop every target", deltaRequest{DropTargets: [][2]string{{"0", "5"}, {"2", "7"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
		})
	}
	// The session must still work after every rejection.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect after rejections: status %d: %s", resp.StatusCode, body)
	}
}

// TestSessionWarmStartStats pins the warm-start observability surface:
// protect responses carry warm_start, and GET /v1/stats aggregates
// warm_runs / cold_runs / warm_fallbacks across sessions.
func TestSessionWarmStartStats(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)

	protect := func(step string) protectResponse {
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
	if out := protect("first protect"); out.WarmStart {
		t.Fatalf("first protect claims warm start: %+v", out)
	}
	// An unchanged session replays its previous selection warm.
	if out := protect("second protect"); !out.WarmStart {
		t.Fatalf("repeat protect on unchanged session did not warm-start: %+v", out)
	}
	// A delta either warm-starts the next protect or falls back cold —
	// both legal; either way the counters must account for the run.
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"1", "7"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	protect("protect after delta")

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.WarmRuns < 1 {
		t.Fatalf("stats warm_runs = %d, want >= 1: %s", st.WarmRuns, body)
	}
	if st.ColdRuns < 1 {
		t.Fatalf("stats cold_runs = %d, want >= 1: %s", st.ColdRuns, body)
	}
	if st.WarmRuns+st.ColdRuns != 3 {
		t.Fatalf("stats warm_runs+cold_runs = %d+%d, want 3 protects: %s", st.WarmRuns, st.ColdRuns, body)
	}
	if st.WarmFallbacks < 0 || st.WarmFallbacks > st.ColdRuns {
		t.Fatalf("stats warm_fallbacks = %d out of range (cold_runs %d): %s", st.WarmFallbacks, st.ColdRuns, body)
	}

	// The raw JSON must spell the documented field names.
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"warm_runs", "cold_runs", "warm_fallbacks"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("stats response missing %q: %s", key, body)
		}
	}

	// The one-shot path never warm-starts but still counts a cold run.
	resp, body = postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot: status %d: %s", resp.StatusCode, body)
	}
	var oneShot protectResponse
	if err := json.Unmarshal(body, &oneShot); err != nil {
		t.Fatal(err)
	}
	if oneShot.WarmStart {
		t.Fatalf("one-shot protect claims warm start: %+v", oneShot)
	}
	if _, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil); true {
		var st2 statsResponse
		if err := json.Unmarshal(body, &st2); err != nil {
			t.Fatal(err)
		}
		if st2.ColdRuns != st.ColdRuns+1 {
			t.Fatalf("one-shot cold run not counted: %d -> %d", st.ColdRuns, st2.ColdRuns)
		}
	}
}
