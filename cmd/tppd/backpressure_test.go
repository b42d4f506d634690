package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestBackpressure429 pins the graceful-degradation contract: when every
// selection slot stays busy past the configured wait, the server answers
// 429 with a Retry-After hint and the queue depth instead of queueing the
// request until its deadline — and recovers to normal service the moment a
// slot frees. The slots are one pool: while any slot is free, no session's
// work is turned away.
func TestBackpressure429(t *testing.T) {
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	srv.ConfigureBackpressure(50 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Occupy both selection slots, as two long-running selections would.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}

	req := protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
		Pattern: "Triangle",
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/protect", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", resp.StatusCode, body)
	}
	retryAfter, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retryAfter < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var busy struct {
		Error             string `json:"error"`
		QueueDepth        *int64 `json:"queue_depth"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &busy); err != nil || busy.Error == "" {
		t.Fatalf("429 body %q is not an error payload: %v", body, err)
	}
	if busy.QueueDepth == nil {
		t.Fatalf("429 body %q lacks the queue_depth field", body)
	}
	if busy.RetryAfterSeconds != retryAfter {
		t.Fatalf("body retry_after_seconds %d disagrees with Retry-After header %d", busy.RetryAfterSeconds, retryAfter)
	}

	// Session creation degrades the same way — it needs a slot too.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated create answered %d, want 429", resp.StatusCode)
	}

	if got := srv.metrics.busyRejections.Load(); got != 2 {
		t.Fatalf("busy rejection counter = %d, want 2", got)
	}
	st := struct {
		BusyRejections int64 `json:"busy_rejections"`
	}{}
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.BusyRejections != 2 {
		t.Fatalf("stats busy_rejections = %d, want 2", st.BusyRejections)
	}

	// A freed slot restores normal service immediately.
	<-srv.sem
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/protect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after slot freed: status %d, want 200: %s", resp.StatusCode, body)
	}

	// With one slot still held, the free one serves every session: no
	// session id is tied to a slot it must wait for.
	for i := 0; i < 8; i++ {
		id := createQuickstartSession(t, ts)
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{OmitReleased: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d protect with one of two slots free: status %d, want 200: %s", i, resp.StatusCode, body)
		}
	}
	if got := srv.metrics.busyRejections.Load(); got != 2 {
		t.Fatalf("busy rejection counter = %d after the pooled-slot protects, want 2", got)
	}
	<-srv.sem
}

// TestBackpressureZeroWaitQueues: queue-wait 0 preserves the original
// queue-until-deadline behaviour — a briefly saturated server still serves
// the request once a slot frees.
func TestBackpressureZeroWaitQueues(t *testing.T) {
	srv := NewServer(1, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	srv.ConfigureBackpressure(0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	srv.sem <- struct{}{} // saturate; the goroutine frees it mid-request
	go func() {
		time.Sleep(100 * time.Millisecond)
		<-srv.sem
	}()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/protect", protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
		Pattern: "Triangle",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request answered %d, want 200: %s", resp.StatusCode, body)
	}
	if got := srv.metrics.busyRejections.Load(); got != 0 {
		t.Fatalf("queue-until-deadline mode rejected %d requests", got)
	}
}

// TestRetryAfterFromEWMA pins the Retry-After derivation: before any
// completion the configured queue-wait budget is the only signal; after
// observations the estimate is the EWMA service time times the queue ahead
// of the client, spread over the selection slots, clamped to [1, 60].
func TestRetryAfterFromEWMA(t *testing.T) {
	ss := &Server{sem: make(chan struct{}, 2), queueWait: 5 * time.Second}
	if got := ss.retryAfterSeconds(); got != 5 {
		t.Fatalf("no-observation fallback = %ds, want the 5s queue-wait", got)
	}
	ss.queueWait = 0
	if got := ss.retryAfterSeconds(); got != 1 {
		t.Fatalf("fallback floor = %ds, want 1", got)
	}
	ss.observeService(4 * time.Second) // first sample seeds the EWMA
	ss.waiters.Store(1)
	// (1 waiter + this client) * 4s over 2 slots = 4s.
	if got := ss.retryAfterSeconds(); got != 4 {
		t.Fatalf("EWMA estimate = %ds, want 4", got)
	}
	ss.waiters.Store(1000)
	if got := ss.retryAfterSeconds(); got != 60 {
		t.Fatalf("backlogged estimate = %ds, want the 60s clamp", got)
	}
	// Later samples move the mean an eighth of the distance per completion.
	ss.waiters.Store(0)
	ss.observeService(12 * time.Second)
	if got := ss.ewmaNS.Load(); got != int64(5*time.Second) {
		t.Fatalf("EWMA after 4s then 12s = %v, want 5s", time.Duration(got))
	}
}
