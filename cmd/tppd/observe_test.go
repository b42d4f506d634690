package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHealthzDrainFlip pins the readiness contract: /v1/healthz answers 200
// while serving and 503 once a drain begins, while the legacy /healthz
// liveness probe stays 200 throughout.
func TestHealthzDrainFlip(t *testing.T) {
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/v1/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("ready healthz = %d %q, want 200 ok", code, body)
	}

	srv.BeginDrain()
	if code, body := get("/v1/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	// Liveness is unaffected: the process is still up, just not accepting
	// new work.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("liveness during drain = %d, want 200", code)
	}

	// Close is idempotent with the drain already begun and keeps readiness
	// down.
	srv.Close()
	if code, _ := get("/v1/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d, want 503", code)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// exposition carries the per-route, stage and selection series with the
// right content type.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)

	resp, body := postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
		Pattern: "Triangle",
		Method:  "sgb",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(text)

	// One protect request ran: its route counter, its latency histogram,
	// the pipeline stage histograms and the selection-mode counters must
	// all be present with non-zero samples where the request touched them.
	for _, want := range []string{
		`tppd_requests_total{class="2xx",route="POST /v1/protect"} 1`,
		`tppd_request_duration_seconds_count{route="POST /v1/protect"} 1`,
		`tpp_stage_duration_seconds_count{stage="enumerate"} 1`,
		`tpp_stage_duration_seconds_count{stage="cold_select"} 1`,
		`tppd_selection_runs_total{mode="cold"} 1`,
		`tppd_protect_requests_total 1`,
		`tppd_sessions_open 0`,
		`tpp_shard_bytes 0`,
		`tpp_shard_queue_depth 0`,
		`# TYPE tppd_request_duration_seconds histogram`,
		`# HELP tppd_requests_total HTTP requests by route and status class.`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The scrape itself is instrumented too: a second scrape sees the first
	// one's route counter.
	m2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text2, _ := io.ReadAll(m2.Body)
	m2.Body.Close()
	if !strings.Contains(string(text2), `tppd_requests_total{class="2xx",route="GET /metrics"} 1`) {
		t.Error("second scrape missing the first scrape's route counter")
	}

	// MetricsHandler (the debug-listener mount) serves the same registry.
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "tppd_protect_requests_total 1") {
		t.Error("MetricsHandler does not serve the shared registry")
	}
}

// TestRequestLogFields runs traffic with a debug-level JSON logger installed
// and checks the structured request log carries the documented fields,
// including the session id, the method (resolved when a one-shot request
// omits it) and the per-stage timing breakdown. It carries no engine: a
// session has one.
func TestRequestLogFields(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)
	var buf bytes.Buffer
	srv.ConfigureLogging(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})), 0)

	id := createQuickstartSession(t, ts)
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect",
		sessionProtectRequest{OmitReleased: true, Engine: "indexed"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot protect: status %d: %s", resp.StatusCode, body)
	}

	type logLine struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Route     string  `json:"route"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration_ms"`
		Session   string  `json:"session"`
		Method    string  `json:"tpp_method"`
		Engine    *string `json:"engine"`
		Stages    struct {
			Enumerate  float64 `json:"enumerate_ms"`
			ColdSelect float64 `json:"cold_select_ms"`
		} `json:"stages"`
	}
	var lines []logLine
	ids := make(map[string]bool)
	for _, raw := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ll logLine
		if err := json.Unmarshal(raw, &ll); err != nil {
			t.Fatalf("unparseable log line %q: %v", raw, err)
		}
		if ll.Msg != "request" {
			continue
		}
		if ll.RequestID == "" {
			t.Errorf("log line for %s has no request_id", ll.Route)
		}
		ids[ll.RequestID] = true
		lines = append(lines, ll)
	}
	if len(lines) != 3 {
		t.Fatalf("request log lines = %d, want 3 (create + protect + one-shot protect)", len(lines))
	}
	if len(ids) != len(lines) {
		t.Errorf("request ids not unique: %d ids over %d lines", len(ids), len(lines))
	}

	create, protect, oneShot := lines[0], lines[1], lines[2]
	if create.Route != "POST /v1/sessions" || create.Status != http.StatusCreated || create.Session != id {
		t.Errorf("create line = route %q status %d session %q, want POST /v1/sessions 201 %q",
			create.Route, create.Status, create.Session, id)
	}
	if protect.Route != "POST /v1/sessions/{id}/protect" || protect.Status != http.StatusOK {
		t.Errorf("protect line = route %q status %d, want the protect route and 200", protect.Route, protect.Status)
	}
	if protect.Session != id {
		t.Errorf("protect line session = %q, want %q", protect.Session, id)
	}
	if oneShot.Route != "POST /v1/protect" || oneShot.Method != "sgb" {
		t.Errorf("one-shot line = route %q method %q, want POST /v1/protect with the default method sgb",
			oneShot.Route, oneShot.Method)
	}
	for _, ll := range lines {
		if ll.Engine != nil {
			t.Errorf("%s line carries engine %q, want no engine attribute", ll.Route, *ll.Engine)
		}
	}
	if protect.Duration <= 0 {
		t.Errorf("protect line duration_ms = %v, want > 0", protect.Duration)
	}
	// The first protect on a fresh session enumerates and selects cold;
	// both spans must land in the breakdown.
	if protect.Stages.Enumerate <= 0 || protect.Stages.ColdSelect <= 0 {
		t.Errorf("protect stage breakdown = %+v, want enumerate_ms and cold_select_ms > 0", protect.Stages)
	}
}

// TestRequestIDHeaderJoinsLog pins that every response carries X-Request-Id
// and that it equals the request_id of that request's log line, on
// successes and on 404s and 400s alike.
func TestRequestIDHeaderJoinsLog(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)
	var buf bytes.Buffer
	srv.ConfigureLogging(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})), 0)

	type sent struct {
		path   string
		status int
		id     string
	}
	var reqs []sent
	do := func(method, path string, payload any, want int) {
		t.Helper()
		resp, body := doJSON(t, method, ts.URL+path, payload)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, body)
		}
		reqs = append(reqs, sent{path: path, status: want, id: resp.Header.Get(requestIDHeader)})
	}
	do(http.MethodGet, "/v1/healthz", nil, http.StatusOK)
	do(http.MethodGet, "/v1/healthz", nil, http.StatusOK)
	do(http.MethodGet, "/v1/sessions/s-0000000000000000", nil, http.StatusNotFound)
	do(http.MethodGet, "/no/such/route", nil, http.StatusNotFound)
	do(http.MethodPost, "/v1/protect", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Method: "bogus"}, http.StatusBadRequest)

	type logLine struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
	}
	logged := make(map[string]logLine)
	for _, raw := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ll logLine
		if err := json.Unmarshal(raw, &ll); err != nil {
			t.Fatalf("unparseable log line %q: %v", raw, err)
		}
		if ll.Msg == "request" {
			logged[ll.RequestID] = ll
		}
	}
	seen := make(map[string]bool)
	for _, r := range reqs {
		if r.id == "" {
			t.Errorf("%s (%d): no %s header", r.path, r.status, requestIDHeader)
			continue
		}
		if seen[r.id] {
			t.Errorf("%s (%d): request id %q reused", r.path, r.status, r.id)
		}
		seen[r.id] = true
		ll, ok := logged[r.id]
		if !ok {
			t.Errorf("%s (%d): header id %q has no log line", r.path, r.status, r.id)
		} else if ll.Path != r.path || ll.Status != r.status {
			t.Errorf("header id %q logs %s %d, but the request was %s %d", r.id, ll.Path, ll.Status, r.path, r.status)
		}
	}
}

// TestSlowRequestPromotedToWarn sets a zero-distance slow threshold so every
// request counts as slow and checks the promotion to Warn with the "slow
// request" message — visible under the default Info level.
func TestSlowRequestPromotedToWarn(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)
	var buf bytes.Buffer
	srv.ConfigureLogging(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})), time.Nanosecond)

	if resp, body := postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, body)
	}

	out := buf.String()
	if !strings.Contains(out, `"slow request"`) || !strings.Contains(out, `"level":"WARN"`) {
		t.Errorf("slow request not promoted to warn: %s", out)
	}
}

// TestUnmatchedRouteCountsAsOther pins the catch-all: requests that match no
// registered route land on the "other" series instead of panicking on a
// missing instrument.
func TestUnmatchedRouteCountsAsOther(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(text), `tppd_requests_total{class="4xx",route="other"} 1`) {
		t.Error(`exposition missing the 404 on route="other"`)
	}
}

// TestStatsMatchesMetrics cross-checks the two views of the same registry:
// every counter /v1/stats reports must agree with what /metrics exports.
func TestStatsMatchesMetrics(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)

	id := createQuickstartSession(t, ts)
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{OmitReleased: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", deltaRequest{
		Insert: [][2]string{{"0", "9"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}

	var stats statsResponse
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}

	m := srv.metrics
	if stats.TotalRequests != m.protectRequests.Load() {
		t.Errorf("total_requests = %d, metrics say %d", stats.TotalRequests, m.protectRequests.Load())
	}
	if stats.DeltasApplied != 1 || m.deltasApplied.Load() != 1 {
		t.Errorf("deltas_applied = %d / %d, want 1", stats.DeltasApplied, m.deltasApplied.Load())
	}
	if stats.IndexBuilds != 1 {
		t.Errorf("index_builds = %d, want 1 (one enumeration on the first protect)", stats.IndexBuilds)
	}
	if stats.EnumerationTotalMS <= 0 || stats.EnumerationMeanMS <= 0 {
		t.Errorf("enumeration timings = %v total / %v mean, want > 0", stats.EnumerationTotalMS, stats.EnumerationMeanMS)
	}
	if stats.EnumerationMeanMS > stats.EnumerationTotalMS {
		t.Errorf("enumeration mean %v exceeds total %v", stats.EnumerationMeanMS, stats.EnumerationTotalMS)
	}
	if stats.DeltaApplyTotalMS <= 0 || stats.DeltaApplyMeanMS <= 0 {
		t.Errorf("delta timings = %v total / %v mean, want > 0", stats.DeltaApplyTotalMS, stats.DeltaApplyMeanMS)
	}
	if stats.ColdRuns != m.coldRuns.Load() || stats.WarmRuns != m.warmRuns.Load() {
		t.Errorf("selection counters disagree: stats %d/%d, metrics %d/%d",
			stats.WarmRuns, stats.ColdRuns, m.warmRuns.Load(), m.coldRuns.Load())
	}
}

// TestStatusWriterDefaults pins the statusWriter's implicit-200 behaviour:
// handlers that Write without WriteHeader still record a 200.
func TestStatusWriterDefaults(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	if _, err := sw.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if sw.status != http.StatusOK || sw.bytes != 5 {
		t.Errorf("statusWriter = %d/%d, want 200/5", sw.status, sw.bytes)
	}

	rec = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rec}
	sw.WriteHeader(http.StatusTeapot)
	sw.WriteHeader(http.StatusOK) // ignored, like net/http's superfluous call
	if sw.status != http.StatusTeapot {
		t.Errorf("status after double WriteHeader = %d, want 418", sw.status)
	}
}
