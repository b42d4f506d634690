package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSessionProtectValidationLeavesNoTrace: a session protect whose
// overrides fail validation is a 400 that leaves no trace. No run is
// counted and the session stays clean, so a spill closes its log instead
// of writing a snapshot.
func TestSessionProtectValidationLeavesNoTrace(t *testing.T) {
	srv, ts := newBudgetedDurableServer(t, t.TempDir(), 1<<30)
	id := createQuickstartSession(t, ts)
	neg := -1
	for _, req := range []sessionProtectRequest{
		{Budget: &neg},
		{Workers: &neg},
		{Method: "bogus"},
		{Division: "bogus"},
		{Engine: "warp"},
		{Engine: "recount"},
	} {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400: %s", req, resp.StatusCode, body)
		}
	}
	before := getStats(t, ts)
	if runs := before.n(warmRunsSeries) + before.n(coldRunsSeries); before.n("tppd_protect_requests_total") != 0 || runs != 0 {
		t.Errorf("rejected protects counted: tppd_protect_requests_total %d, selections %d",
			before.n("tppd_protect_requests_total"), runs)
	}
	spillAll(srv)
	after := getStats(t, ts)
	if after.n("tppd_sessions_spilled_total") != before.n("tppd_sessions_spilled_total")+1 {
		t.Fatalf("tppd_sessions_spilled_total %d → %d, want one spill",
			before.n("tppd_sessions_spilled_total"), after.n("tppd_sessions_spilled_total"))
	}
	if after.n("tpp_snapshot_bytes_count") != before.n("tpp_snapshot_bytes_count") {
		t.Errorf("tpp_snapshot_bytes_count %d → %d: a rejected protect left the session dirty",
			before.n("tpp_snapshot_bytes_count"), after.n("tpp_snapshot_bytes_count"))
	}
	if info := getSessionInfo(t, ts, id); info.Runs != 0 {
		t.Errorf("runs = %d after only rejected protects", info.Runs)
	}
}

// blockingWriter is a ResponseWriter whose Write blocks until release is
// closed; writing is closed once the handler reaches its write.
type blockingWriter struct {
	header  http.Header
	status  int
	body    []byte
	writing chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Header() http.Header { return w.header }

func (w *blockingWriter) WriteHeader(status int) { w.status = status }

func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.writing)
	<-w.release
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestNothingHeldDuringWrite pins the pipeline's release-before-encode
// order: while any route's response is being written, to a client as slow
// as it likes, no selection slot and no session record slot is held.
func TestNothingHeldDuringWrite(t *testing.T) {
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	h := srv.Handler()

	var rec *sessionRecord // the session under test, once created
	do := func(method, path string, payload any, want int) []byte {
		t.Helper()
		var body string
		if payload != nil {
			b, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			body = string(b)
		}
		bw := &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(bw, httptest.NewRequest(method, path, strings.NewReader(body)))
		}()
		route := method + " " + path
		select {
		case <-bw.writing:
		case <-done:
			t.Fatalf("%s: the handler returned without writing a response", route)
		}
		if n := len(srv.sem); n != 0 {
			t.Errorf("%s: %d selection slots held while the response is written", route, n)
		}
		if rec == nil {
			if recs := srv.records(); len(recs) == 1 {
				rec = recs[0]
			}
		}
		if rec != nil && len(rec.slot) != 0 {
			t.Errorf("%s: the session's record slot is held while the response is written", route)
		}
		close(bw.release)
		<-done
		if bw.status != want {
			t.Fatalf("%s: status %d, want %d: %s", route, bw.status, want, bw.body)
		}
		return bw.body
	}

	create := protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}, {"2", "7"}}}
	do(http.MethodPost, "/v1/protect", create, http.StatusOK)
	var info sessionResponse
	if err := json.Unmarshal(do(http.MethodPost, "/v1/sessions", create, http.StatusCreated), &info); err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.id != info.ID {
		t.Fatalf("created session %q is not the one record in the store", info.ID)
	}
	path := "/v1/sessions/" + info.ID
	do(http.MethodGet, path, nil, http.StatusOK)
	do(http.MethodPost, path+"/delta", deltaRequest{Insert: [][2]string{{"0", "9"}}}, http.StatusOK)
	do(http.MethodPost, path+"/protect", sessionProtectRequest{}, http.StatusOK)
	do(http.MethodDelete, path, nil, http.StatusOK)
}
