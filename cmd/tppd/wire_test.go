package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"
)

// checkWireShape asserts the response framing every route shares: an exact
// Content-Length, no chunking, and a body that is one line of compact JSON
// ending in a newline.
func checkWireShape(t *testing.T, class string, resp *http.Response, body []byte) {
	t.Helper()
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q, body is %d bytes", class, got, len(body))
	}
	for _, te := range resp.TransferEncoding {
		if te == "chunked" {
			t.Errorf("%s: response is chunked", class)
		}
	}
	if len(body) == 0 || body[len(body)-1] != '\n' || bytes.Count(body, []byte("\n")) != 1 {
		t.Errorf("%s: body is not one newline-terminated line: %q", class, body)
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body[:len(body)-1]); err != nil {
		t.Errorf("%s: body is not JSON: %v", class, err)
	} else if !bytes.Equal(compact.Bytes(), body[:len(body)-1]) {
		t.Errorf("%s: body is not compact JSON: %q", class, body)
	}
}

// hasKey reports whether the JSON object body has a top-level key.
func hasKey(t *testing.T, body []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body is not a JSON object: %v", err)
	}
	_, ok := m[key]
	return ok
}

// TestWireShapeEveryRouteClass drives one request of every route class —
// one-shot protect, session create, delta, session protect, GET, DELETE, a
// 400 and a 429 — and checks each response's framing. The graphs are large
// enough that the protect responses exceed the server's chunking threshold,
// so only an explicit Content-Length keeps them unchunked. It also pins
// which protect responses echo targets.
func TestWireShapeEveryRouteClass(t *testing.T) {
	srv, ts := newSessionTestServer(t, 0)
	srv.ConfigureBackpressure(20 * time.Millisecond)
	dataset := &datasetSpec{Name: "dblp", Scale: 200}

	resp, body := postProtect(t, ts, protectRequest{Dataset: dataset, SampleTargets: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot protect: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "one-shot protect", resp, body)
	var oneShot protectResponse
	if err := json.Unmarshal(body, &oneShot); err != nil {
		t.Fatal(err)
	}
	if len(oneShot.Targets) != 3 {
		t.Errorf("one-shot protect with sample_targets echoed %d targets, want 3", len(oneShot.Targets))
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", protectRequest{Dataset: dataset, SampleTargets: 3})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "session create", resp, body)
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	sessionURL := ts.URL + "/v1/sessions/" + info.ID

	resp, body = doJSON(t, http.MethodPost, sessionURL+"/delta", deltaRequest{
		AddNodes: []string{"x"},
		Insert:   [][2]string{{"x", "0"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "delta", resp, body)

	resp, body = doJSON(t, http.MethodPost, sessionURL+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session protect: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "session protect", resp, body)
	if hasKey(t, body, "targets") {
		t.Errorf("session protect echoed targets: %s", body)
	}

	resp, body = doJSON(t, http.MethodGet, sessionURL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "get", resp, body)
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Targets) != 3 {
		t.Errorf("get returned %d targets, want 3", len(info.Targets))
	}

	resp, body = doJSON(t, http.MethodDelete, sessionURL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "delete", resp, body)

	resp, body = postProtect(t, ts, protectRequest{Dataset: dataset, SampleTargets: 3, Method: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method: status %d, want 400: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "400", resp, body)

	sem := srv.sem
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	resp, body = postProtect(t, ts, protectRequest{Dataset: dataset, SampleTargets: 3})
	for i := 0; i < cap(sem); i++ {
		<-sem
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated protect: status %d, want 429: %s", resp.StatusCode, body)
	}
	checkWireShape(t, "429", resp, body)
}

// TestColdRouteBytes pins the exact status, headers and body bytes of the
// health probes, serving and draining, and of the dataset list.
func TestColdRouteBytes(t *testing.T) {
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	srv.ConfigureLogging(slog.New(slog.DiscardHandler), 0)
	h := srv.Handler()
	const (
		ok       = `{"status":"ok"}` + "\n"
		draining = `{"status":"draining"}` + "\n"
		datasets = `{"datasets":[` +
			`{"description":"Arenas-email stand-in: 1133 nodes, ~5451 edges","name":"arenas-email"},` +
			`{"description":"DBLP co-authorship stand-in; set scale for node count (default 2000)","name":"dblp"}]}` + "\n"
	)
	seq := 0
	check := func(path string, wantStatus int, wantBody string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		seq++
		wantHeader := http.Header{
			"Content-Type":   {"application/json"},
			"Content-Length": {strconv.Itoa(len(wantBody))},
			"X-Request-Id":   {fmt.Sprintf("%s-%06d", srv.idPrefix, seq)},
		}
		if rec.Code != wantStatus || rec.Body.String() != wantBody || !maps.EqualFunc(rec.Header(), wantHeader, slices.Equal) {
			t.Errorf("GET %s:\n got  %d %v %q\n want %d %v %q", path,
				rec.Code, rec.Header(), rec.Body.String(), wantStatus, wantHeader, wantBody)
		}
	}
	check("/healthz", http.StatusOK, ok)
	check("/v1/healthz", http.StatusOK, ok)
	check("/v1/datasets", http.StatusOK, datasets)
	srv.BeginDrain()
	check("/v1/healthz", http.StatusServiceUnavailable, draining)
	check("/healthz", http.StatusOK, ok)
}

// TestSessionFootprintCounters drives random deltas with node churn and
// checks, after every step, that the cached footprint of each resident
// session equals a fresh measurement, and that the store's tracked bytes
// equal the sum of its sessions' fresh footprints.
func TestSessionFootprintCounters(t *testing.T) {
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	check := func(step string) {
		t.Helper()
		var sum int64
		for _, rec := range srv.records() {
			rec.slot <- struct{}{}
			cached := sessionFootprint(rec)
			fresh := rec.session.MemFootprint() + labelingFootprint(rec.lab)
			<-rec.slot
			if cached != fresh {
				t.Fatalf("%s: session %s footprint %d, fresh measurement %d", step, rec.id, cached, fresh)
			}
			sum += fresh
		}
		if used := srv.budget.Used(); used != sum {
			t.Fatalf("%s: store tracks %d bytes, its sessions measure %d", step, used, sum)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var models []*labelModel
	for i := 0; i < 4; i++ {
		id := createQuickstartSession(t, ts)
		models = append(models, newLabelModel(id, quickstartEdges, [][2]string{{"0", "5"}, {"2", "7"}}))
	}
	check("create")
	added, removed := 0, 0
	for step := 0; step < 120; step++ {
		m := models[rng.Intn(len(models))]
		if rng.Intn(4) == 0 {
			if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+m.id+"/protect",
				sessionProtectRequest{OmitReleased: true}); resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d protect: status %d: %s", step, resp.StatusCode, body)
			}
			check(fmt.Sprintf("step %d protect", step))
			continue
		}
		req := m.randomDelta(rng, step)
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+m.id+"/delta", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d delta %+v: status %d: %s", step, req, resp.StatusCode, body)
		}
		m.apply(req)
		added += len(req.AddNodes)
		removed += len(req.RemoveNodes)
		check(fmt.Sprintf("step %d delta", step))
	}
	if added == 0 || removed == 0 {
		t.Fatalf("random deltas added %d and removed %d nodes; both kinds of node churn must run", added, removed)
	}
}

// labelModel mirrors one session's graph and targets by label, so the test
// can draw deltas the server accepts.
type labelModel struct {
	id      string
	adj     map[string]map[string]bool
	targets map[[2]string]bool
}

func newLabelModel(id string, edges, targets [][2]string) *labelModel {
	m := &labelModel{id: id, adj: make(map[string]map[string]bool), targets: make(map[[2]string]bool)}
	for _, e := range edges {
		m.node(e[0])[e[1]] = true
		m.node(e[1])[e[0]] = true
	}
	for _, tg := range targets {
		m.targets[pairKey(tg[0], tg[1])] = true
	}
	return m
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (m *labelModel) node(n string) map[string]bool {
	if m.adj[n] == nil {
		m.adj[n] = make(map[string]bool)
	}
	return m.adj[n]
}

// randomDelta draws one valid delta: a node joining with an edge, a node
// (on no target) leaving with all its edges, or plain edge churn.
func (m *labelModel) randomDelta(rng *rand.Rand, step int) deltaRequest {
	nodes := slices.Sorted(maps.Keys(m.adj))
	switch rng.Intn(3) {
	case 0:
		name := "n" + strconv.Itoa(step)
		return deltaRequest{AddNodes: []string{name}, Insert: [][2]string{{name, nodes[rng.Intn(len(nodes))]}}}
	case 1:
		var free []string
		for _, n := range nodes {
			onTarget := false
			for tg := range m.targets {
				onTarget = onTarget || tg[0] == n || tg[1] == n
			}
			if !onTarget {
				free = append(free, n)
			}
		}
		if len(free) > 0 {
			x := free[rng.Intn(len(free))]
			req := deltaRequest{RemoveNodes: []string{x}}
			for _, w := range slices.Sorted(maps.Keys(m.adj[x])) {
				req.Remove = append(req.Remove, [2]string{x, w})
			}
			return req
		}
	}
	for {
		u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if u == v || m.targets[pairKey(u, v)] {
			continue
		}
		if m.adj[u][v] {
			return deltaRequest{Remove: [][2]string{{u, v}}}
		}
		return deltaRequest{Insert: [][2]string{{u, v}}}
	}
}

// apply folds an accepted delta into the model.
func (m *labelModel) apply(req deltaRequest) {
	for _, n := range req.AddNodes {
		m.node(n)
	}
	for _, e := range req.Insert {
		m.node(e[0])[e[1]] = true
		m.node(e[1])[e[0]] = true
	}
	for _, e := range req.Remove {
		delete(m.adj[e[0]], e[1])
		delete(m.adj[e[1]], e[0])
	}
	for _, n := range req.RemoveNodes {
		delete(m.adj, n)
	}
}
