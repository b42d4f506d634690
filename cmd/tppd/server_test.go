package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tpp"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(2, 1<<20, 30*time.Second, 0, 0).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// quickstartEdges is the quickstart example's 10-person friendship graph.
var quickstartEdges = [][2]string{
	{"0", "1"}, {"0", "2"}, {"0", "3"}, {"0", "5"}, {"1", "2"}, {"1", "5"},
	{"2", "3"}, {"2", "5"}, {"2", "7"}, {"3", "4"}, {"4", "5"}, {"4", "7"},
	{"5", "6"}, {"6", "7"}, {"7", "8"}, {"8", "9"}, {"2", "4"},
}

func postProtect(t *testing.T, ts *httptest.Server, req protectRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/protect", "application/json", bytes.NewReader(body))
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

func TestProtectEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}, {"2", "7"}},
		Pattern: "Triangle",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out protectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if !out.FullProtection || out.FinalSimilarity != 0 {
		t.Fatalf("default request should reach full protection: %+v", out)
	}
	if len(out.Protectors) == 0 {
		t.Fatal("no protectors selected")
	}
	if len(out.SimilarityTrace) != len(out.Protectors)+1 {
		t.Fatalf("trace length %d != %d protectors + 1", len(out.SimilarityTrace), len(out.Protectors))
	}
	if len(out.ReleasedEdges) == 0 {
		t.Fatal("released edge list missing")
	}
	// Neither the targets nor the protectors may appear in the release.
	released := make(map[[2]string]bool, len(out.ReleasedEdges))
	for _, e := range out.ReleasedEdges {
		released[e] = true
		released[[2]string{e[1], e[0]}] = true
	}
	for _, e := range append(append([][2]string{}, out.Targets...), out.Protectors...) {
		if released[e] {
			t.Fatalf("edge %v present in released graph", e)
		}
	}
	if want := len(quickstartEdges) - 2 - len(out.Protectors); len(out.ReleasedEdges) != want {
		t.Fatalf("released %d edges, want %d", len(out.ReleasedEdges), want)
	}
}

func TestProtectAllMethodsAndOmitReleased(t *testing.T) {
	ts := newTestServer(t)
	for _, method := range []string{"sgb", "ct", "wt", "rd", "rdt"} {
		resp, body := postProtect(t, ts, protectRequest{
			Edges:        quickstartEdges,
			Targets:      [][2]string{{"0", "5"}},
			Method:       method,
			Division:     "dbd",
			Budget:       3,
			Seed:         7,
			OmitReleased: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, resp.StatusCode, body)
		}
		var out protectResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.ReleasedEdges != nil {
			t.Fatalf("%s: released edges echoed despite omit_released", method)
		}
		if len(out.Protectors) > 3 {
			t.Fatalf("%s: budget exceeded: %d protectors", method, len(out.Protectors))
		}
	}
}

func TestProtectDatasetWithSampledTargets(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postProtect(t, ts, protectRequest{
		Dataset:       &datasetSpec{Name: "dblp", Scale: 120, Seed: 3},
		SampleTargets: 2,
		Seed:          5,
		OmitReleased:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out protectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 120 || len(out.Targets) != 2 {
		t.Fatalf("unexpected dataset response: %+v", out)
	}
	if !out.FullProtection {
		t.Fatalf("critical-budget run should fully protect: %+v", out)
	}
}

func TestProtectBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		req  protectRequest
	}{
		{"no graph", protectRequest{Targets: [][2]string{{"a", "b"}}}},
		{"both graphs", protectRequest{Edges: quickstartEdges, Dataset: &datasetSpec{Name: "dblp"}, Targets: [][2]string{{"0", "5"}}}},
		{"no targets", protectRequest{Edges: quickstartEdges}},
		{"unknown node", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "zzz"}}}},
		{"not an edge", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "9"}}}},
		{"unknown method", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Method: "bogus"}},
		{"unknown division", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Method: "ct", Division: "bogus"}},
		{"negative budget", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Budget: -1}},
		{"unknown pattern", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Pattern: "Hexagon"}},
		{"unknown dataset", protectRequest{Dataset: &datasetSpec{Name: "enron"}, SampleTargets: 1}},
		{"oversized dataset scale", protectRequest{Dataset: &datasetSpec{Name: "dblp", Scale: 1 << 30}, SampleTargets: 1}},
	}
	for _, tc := range cases {
		resp, body := postProtect(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		var out errorResponse
		if err := json.Unmarshal(body, &out); err != nil || out.Error == "" {
			t.Fatalf("%s: malformed error body: %s", tc.name, body)
		}
	}
}

// TestProtectMalformedJSON drives every route that decodes a body with
// bodies that are not exactly one JSON value: each is a 400, and a rejected
// delta is not applied. Trailing whitespace is still fine.
func TestProtectMalformedJSON(t *testing.T) {
	_, ts := newSessionTestServer(t, 0)
	id := createQuickstartSession(t, ts)
	oneShot := `{"edges":[["a","b"],["b","c"],["a","c"]],"targets":[["a","b"]]}`
	routes := []struct{ path, valid string }{
		{"/v1/protect", oneShot},
		{"/v1/sessions", oneShot},
		{"/v1/sessions/" + id + "/delta", `{"insert":[["0","9"]]}`},
		{"/v1/sessions/" + id + "/protect", `{"omit_released":true}`},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, rt := range routes {
		for _, body := range []string{
			"{nope",
			rt.valid + " trailing junk",
			rt.valid + rt.valid,
			rt.valid + "}",
		} {
			if status, out := post(rt.path, body); status != http.StatusBadRequest {
				t.Errorf("POST %s %q: status %d, want 400: %s", rt.path, body, status, out)
			}
		}
	}
	if info := getSessionInfo(t, ts, id); info.DeltasApplied != 0 {
		t.Fatalf("deltas_applied = %d after only rejected deltas", info.DeltasApplied)
	}

	// Bodies near the canonical shape: each answers the status, and a 400
	// the message, encoding/json gave them before the one-pass decoder
	// existed. A case-folded key names the field it folds to and a repeated
	// key's last value wins. The delta cases leave 0-9 absent, as the
	// whitespace check below needs.
	const maxBody = 1 << 20 // newSessionTestServer's -max-body
	type edgeCase struct {
		name, body string
		status     int
		msg        string // the 400's message; "" for a 2xx
	}
	unknown := func(field string) string { return `decoding request: json: unknown field "` + field + `"` }
	mistyped := func(num, typ string) string {
		return "decoding request: json: cannot unmarshal number " + num + " into Go struct field " + typ + ".budget of type int"
	}
	over := func(valid string) []edgeCase {
		pad := strings.Repeat(" ", maxBody+1-len(valid))
		return []edgeCase{
			{"over -max-body, value complete", valid + pad, 400, "decoding request: unexpected data after the JSON value"},
			{"over -max-body, value cut", pad + valid, 400, "decoding request: http: request body too large"},
		}
	}
	createCases := func(created int) []edgeCase {
		return append([]edgeCase{
			{"unknown field", `{"bogus":1,` + oneShot[1:], 400, unknown("bogus")},
			{"case-variant key", strings.Replace(oneShot, `"edges"`, `"EDGES"`, 1), created, ""},
			{"duplicate key", `{"targets":[["b","c"]],` + oneShot[1:], created, ""},
			{"null edges", `{"edges":null,"targets":[["a","b"]]}`, 400, "request needs a graph: either edges or dataset"},
			{"float budget", `{"budget":1.0,` + oneShot[1:], 400, mistyped("1.0", "protectRequest")},
			{"exponent budget", `{"budget":1e2,` + oneShot[1:], 400, mistyped("1e2", "protectRequest")},
			{"empty body", "", 400, "decoding request: EOF"},
		}, over(oneShot)...)
	}
	cases := map[string][]edgeCase{
		"/v1/protect":  createCases(http.StatusOK),
		"/v1/sessions": createCases(http.StatusCreated),
		"/v1/sessions/" + id + "/delta": append([]edgeCase{
			{"unknown field", `{"bogus":1,"insert":[["0","9"]]}`, 400, unknown("bogus")},
			{"case-variant key", `{"INSERT":[["0","9"]]}`, 200, ""},
			{"duplicate key", `{"remove":[["1","2"]],"remove":[["0","9"]]}`, 200, ""},
			{"null edges", `{"edges":null,"insert":[["0","9"]]}`, 400, unknown("edges")},
			{"float budget", `{"budget":1.0,"insert":[["0","9"]]}`, 400, unknown("budget")},
			{"exponent budget", `{"budget":1e2,"insert":[["0","9"]]}`, 400, unknown("budget")},
			{"empty body", "", 400, "decoding request: EOF"},
		}, over(`{"insert":[["0","9"]]}`)...),
		"/v1/sessions/" + id + "/protect": append([]edgeCase{
			{"unknown field", `{"bogus":1,"omit_released":true}`, 400, unknown("bogus")},
			{"case-variant key", `{"OMIT_RELEASED":true}`, 200, ""},
			{"duplicate key", `{"omit_released":false,"omit_released":true}`, 200, ""},
			{"null edges", `{"edges":null,"omit_released":true}`, 400, unknown("edges")},
			{"float budget", `{"budget":1.0}`, 400, mistyped("1.0", "sessionProtectRequest")},
			{"exponent budget", `{"budget":1e2}`, 400, mistyped("1e2", "sessionProtectRequest")},
			{"empty body", "", 200, ""},
		}, over(`{"omit_released":true}`)...),
	}
	for _, rt := range routes {
		for _, c := range cases[rt.path] {
			status, out := post(rt.path, c.body)
			if status != c.status {
				t.Errorf("POST %s %s: status %d, want %d: %s", rt.path, c.name, status, c.status, out)
				continue
			}
			var er errorResponse
			if c.msg != "" && (json.Unmarshal([]byte(out), &er) != nil || er.Error != c.msg) {
				t.Errorf("POST %s %s: body %s, want error %q", rt.path, c.name, out, c.msg)
			}
			if c.name == "case-variant key" && rt.path == "/v1/protect" && !strings.Contains(out, `"nodes":3,"edges":3,`) {
				t.Errorf("POST %s %s: the folded key did not set edges: %s", rt.path, c.name, out)
			}
			if c.name == "duplicate key" && rt.path == "/v1/protect" && !strings.Contains(out, `"targets":[["a","b"]]`) {
				t.Errorf("POST %s %s: the repeated key's last value did not win: %s", rt.path, c.name, out)
			}
		}
	}

	for _, rt := range routes {
		if status, out := post(rt.path, rt.valid+" \n\t"); status/100 != 2 {
			t.Errorf("POST %s with trailing whitespace: status %d, want 2xx: %s", rt.path, status, out)
		}
	}
}

func TestProtectDeadlineMapsToGatewayTimeout(t *testing.T) {
	ts := newTestServer(t)
	// A 1 ms budget cannot cover generating and indexing a 200k-node graph.
	// The scale is deliberately huge: the deadline timer can fire late on a
	// loaded machine, and the work must still be in flight when it does, so
	// the selection context expires and the service reports 504.
	resp, body := postProtect(t, ts, protectRequest{
		Dataset:       &datasetSpec{Name: "dblp", Scale: 200000, Seed: 2},
		SampleTargets: 3,
		TimeoutMS:     1,
		OmitReleased:  true,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestWriteRunErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosedRequest},
		{tpp.ErrUnknownMethod, http.StatusBadRequest},
		{tpp.ErrUnknownDivision, http.StatusBadRequest},
		{tpp.ErrNegativeBudget, http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeRunError(rec, tc.err)
		if rec.Code != tc.want {
			t.Fatalf("writeRunError(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}

// TestRequestContextHonorsClientTimeoutWithoutServerCap pins that a
// positive client timeout_ms bounds the request even when the server-side
// cap is disabled.
func TestRequestContextHonorsClientTimeoutWithoutServerCap(t *testing.T) {
	s := NewServer(1, 1<<20, 0, 0, 0) // cap disabled
	ctx, cancel := s.requestContext(context.Background(), 5)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("client timeout_ms ignored when server cap is disabled")
	}
	ctx2, cancel2 := s.requestContext(context.Background(), 0)
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("deadline set although both cap and client timeout are unset")
	}
	s = NewServer(1, 1<<20, time.Millisecond, 0, 0) // cap below client ask
	ctx3, cancel3 := s.requestContext(context.Background(), 60_000)
	defer cancel3()
	if dl, ok := ctx3.Deadline(); !ok || time.Until(dl) > time.Second {
		t.Fatalf("client timeout not clamped to server cap (deadline %v)", dl)
	}
}

func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			body, _ := json.Marshal(protectRequest{
				Dataset:       &datasetSpec{Name: "dblp", Scale: 80, Seed: seed},
				SampleTargets: 2,
				OmitReleased:  true,
			})
			resp, err := http.Post(ts.URL+"/v1/protect", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent request failed: %s", e)
	}
}

// TestProtectWithWorkers covers the parallel selection path end to end:
// workers > 1 must succeed and select exactly the same protectors as the
// serial run, with the engine omitted or named.
func TestProtectWithWorkers(t *testing.T) {
	ts := newTestServer(t)
	var want *protectResponse
	for _, tc := range []struct {
		engine  string
		workers int
	}{
		{"", 1}, {"", 4}, {"indexed", 4},
	} {
		resp, body := postProtect(t, ts, protectRequest{
			Dataset:       &datasetSpec{Name: "dblp", Scale: 150, Seed: 4},
			SampleTargets: 3,
			Engine:        tc.engine,
			Workers:       tc.workers,
			OmitReleased:  true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q workers %d: status %d: %s", tc.engine, tc.workers, resp.StatusCode, body)
		}
		var out protectResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = &out
			continue
		}
		if !reflect.DeepEqual(out.Protectors, want.Protectors) {
			t.Fatalf("engine %q workers %d: protectors %v, want %v",
				tc.engine, tc.workers, out.Protectors, want.Protectors)
		}
	}
	// Negative workers are a client mistake.
	resp, body := postProtect(t, ts, protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
		Workers: -2,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative workers: status %d, want 400: %s", resp.StatusCode, body)
	}
	// Every engine spelling but "indexed" is rejected before any work on
	// the one-shot route, at session create and on a session protect:
	// unknown ones, "lazy" (a retired engine), and "recount", which runs
	// only through the library's free functions. The error says which
	// engine a session has, or where recount runs.
	id := createQuickstartSession(t, ts)
	for _, tc := range []struct{ engine, names string }{
		{"warp", "want indexed"}, {"lazy", "want indexed"}, {"recount", "free functions"},
	} {
		for route, send := range map[string]func() (*http.Response, []byte){
			"one-shot protect": func() (*http.Response, []byte) {
				return postProtect(t, ts, protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Engine: tc.engine})
			},
			"session create": func() (*http.Response, []byte) {
				return doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
					protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}, Engine: tc.engine})
			},
			"session protect": func() (*http.Response, []byte) {
				return doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{Engine: tc.engine})
			},
		} {
			resp, body := send()
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.names)) {
				t.Fatalf("%s with engine %q: status %d, want 400 naming %q: %s", route, tc.engine, resp.StatusCode, tc.names, body)
			}
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	readStats := func() statsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/stats: status %d", resp.StatusCode)
		}
		var out statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	before := readStats()
	if before.TotalRequests != 0 || before.IndexBuilds != 0 || before.RunsInflight != 0 {
		t.Fatalf("fresh server has non-zero stats: %+v", before)
	}
	if before.MaxConcurrentConfig != 2 || before.MaxWorkers < 1 {
		t.Fatalf("static stats wrong: %+v", before)
	}

	resp, body := postProtect(t, ts, protectRequest{
		Edges:        quickstartEdges,
		Targets:      [][2]string{{"0", "5"}, {"2", "7"}},
		OmitReleased: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, body)
	}

	after := readStats()
	if after.TotalRequests != 1 {
		t.Fatalf("total_requests = %d, want 1", after.TotalRequests)
	}
	if after.IndexBuilds < 1 {
		t.Fatalf("index_builds = %d, want >= 1", after.IndexBuilds)
	}
	if after.RunsInflight != 0 {
		t.Fatalf("runs_inflight = %d after request finished", after.RunsInflight)
	}
	if after.EnumerationTotalMS < 0 || after.EnumerationMeanMS > after.EnumerationTotalMS {
		t.Fatalf("enumeration timings inconsistent: %+v", after)
	}
}

func TestHealthzAndDatasets(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/v1/datasets"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
