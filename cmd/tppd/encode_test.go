package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// The reflective wire types: what the hand-written encoders must match
// byte for byte, and what the tests decode replies into.

// protectResponse is the selection report plus the released edge list.
// Targets is echoed only by the one-shot POST /v1/protect, where with
// sample_targets it is the only way a client learns which targets were
// drawn. A session protect leaves it out: the session's targets are already
// the client's, and GET /v1/sessions/{id} returns them, so echoing them
// would make every protect cost the whole target set on the wire.
type protectResponse struct {
	Method            string      `json:"method"`
	Nodes             int         `json:"nodes"`
	Edges             int         `json:"edges"`
	Targets           [][2]string `json:"targets,omitempty"`
	Budget            int         `json:"budget"` // as requested; 0 meant critical
	Protectors        [][2]string `json:"protectors"`
	InitialSimilarity int         `json:"initial_similarity"`
	FinalSimilarity   int         `json:"final_similarity"`
	FullProtection    bool        `json:"full_protection"`
	// WarmStart reports whether the selection was served by warm-start
	// replay from the session's previous run (identical result, less work).
	// Always false on the one-shot path — there is no previous run.
	WarmStart       bool        `json:"warm_start"`
	SimilarityTrace []int       `json:"similarity_trace"`
	ElapsedMS       float64     `json:"elapsed_ms"`
	ReleasedEdges   [][2]string `json:"released_edges,omitempty"`
}

// sessionResponse describes a session to the client.
type sessionResponse struct {
	ID            string      `json:"id"`
	Nodes         int         `json:"nodes"`
	Edges         int         `json:"edges"`
	Targets       [][2]string `json:"targets"`
	Pattern       string      `json:"pattern"`
	Created       time.Time   `json:"created"`
	Runs          int64       `json:"runs"`
	DeltasApplied int64       `json:"deltas_applied"`
	IndexBuilds   int         `json:"index_builds"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// edgePairs is the label mapping the protect and session replies were
// built with before the encoders wrote straight from the graph: the
// oracle for their pair lists.
func edgePairs(edges []graph.Edge, lab *graph.Labeling) [][2]string {
	out := make([][2]string, len(edges))
	for i, e := range edges {
		out[i] = [2]string{lab.Name(e.U), lab.Name(e.V)}
	}
	return out
}

// reflectJSON is encoding/json's encoding of v, as writeJSON writes it.
func reflectJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

func checkSameBytes(t testing.TB, what string, got *jsonBuf, want []byte) {
	t.Helper()
	if !bytes.Equal(got.b, want) {
		t.Fatalf("%s:\n got  %q\n want %q", what, got.b, want)
	}
}

// trickyStrings are the labels and messages the string escaper must get
// right: everything encoding/json escapes, and what it must pass through.
var trickyStrings = []string{
	"", "a", "v123", `"`, `\`, `a"b\c`, "<script>&</script>", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "é", "😀", "\u2028", "\u2029", "x\u2028y\u2029z", "\xff",
	"a\xffb", "\xe2\x80", "\xed\xa0\x80", "\ufffd", "日本語", "\u007f\u0080",
}

// randString draws a label from a mix of tricky bytes and runes.
func randString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	const alphabet = "ab<>&\"\\\x00\x1f\n/"
	var b []byte
	for n := rng.Intn(8); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			b = append(b, byte(rng.Intn(256)))
		case 1:
			b = append(b, trickyStrings[rng.Intn(len(trickyStrings))]...)
		default:
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
	}
	return string(b)
}

// trickyFloats are elapsed_ms values on both sides of encoding/json's
// exponent cut-offs.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, 0.001, 1e-6, 9.99e-7, 1e-7, 5e-324, 123.456,
	1e20, 1e21, 9.99e20, 1.5e300, -2.5, -1e-9, -1e22, math.MaxFloat64,
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return trickyFloats[rng.Intn(len(trickyFloats))]
	case 1:
		return float64(rng.Int63n(1e9)) / 1000
	case 2:
		return math.Ldexp(rng.Float64(), rng.Intn(160)-80)
	}
	return -math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
}

// randLabeled draws a small graph with random labels, random targets (an
// edge set disjoint from the graph, as the phase-1 graph excludes them) and
// random protectors (edges of the graph, in random order).
func randLabeled(rng *rand.Rand) (g *graph.Graph, lab *graph.Labeling, targets, protectors []graph.Edge) {
	n := 2 + rng.Intn(12)
	lab = &graph.Labeling{ToID: map[string]graph.NodeID{}}
	for i := 0; i < n; i++ {
		name := randString(rng) + "#" + strconv.Itoa(i)
		lab.ToID[name] = graph.NodeID(i)
		lab.ToName = append(lab.ToName, name)
	}
	g = graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch rng.Intn(4) {
			case 0:
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			case 1:
				targets = append(targets, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	protectors = edges[:rng.Intn(len(edges)+1)]
	return g, lab, targets, protectors
}

func randTrace(rng *rand.Rand, steps int) []int {
	trace := make([]int, steps+1)
	for i := range trace {
		trace[i] = rng.Intn(1000) - 10
	}
	return trace
}

// sessionOn wraps a session over the phase-1 graph g and targets (at least
// one) in a record.
func sessionOn(t testing.TB, g *graph.Graph, targets []graph.Edge, lab *graph.Labeling) *sessionRecord {
	t.Helper()
	original := g.Clone()
	for _, tg := range targets {
		original.AddEdgeE(tg)
	}
	sess, err := tpp.New(original, targets)
	if err != nil {
		t.Fatal(err)
	}
	return &sessionRecord{session: sess, lab: lab}
}

// TestReplyEncodersMatchEncodingJSON: for random values of every reply
// type the hand-written encoders cover, the bytes equal
// json.NewEncoder(buf).Encode's for the reflective wire type.
func TestReplyEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := newJSONBuf()
	for i := 0; i < 2000; i++ {
		msg := randString(rng)
		checkSameBytes(t, "error", e.errorReply(msg), reflectJSON(t, errorResponse{Error: msg}))
		checkSameBytes(t, "deleted", e.deletedReply(msg), reflectJSON(t, map[string]string{"status": "deleted", "id": msg}))

		busy := busyResponse{Error: msg, QueueDepth: rng.Int63() - rng.Int63(), RetryAfterSeconds: rng.Intn(61)}
		checkSameBytes(t, "busy", e.busyReply(&busy), reflectJSON(t, busy))

		d := deltaResponse{
			Inserted: rng.Int(), Removed: -rng.Intn(9), NodesAdded: rng.Intn(9), NodesRemoved: rng.Intn(9),
			TargetsAdded: rng.Intn(9), TargetsDropped: rng.Intn(9), Nodes: rng.Int(), Edges: rng.Int(),
			Targets: rng.Int(), Incremental: rng.Intn(2) == 0, TouchedTargets: rng.Int(),
			KilledInstances: rng.Int(), DroppedInstances: rng.Int(), Instances: rng.Int(), ElapsedMS: randFloat(rng),
		}
		checkSameBytes(t, "delta", e.deltaReply(&d), reflectJSON(t, d))

		g, lab, targets, protectors := randLabeled(rng)
		p := &tpp.Problem{G: g, Pattern: motif.Triangle, Targets: targets}
		created := time.Unix(rng.Int63n(253402300799)-62135596800, rng.Int63n(1e9))
		if rng.Intn(2) == 0 {
			created = created.In(time.FixedZone("", (rng.Intn(47)-23)*1800))
		}
		if len(targets) > 0 {
			rec := sessionOn(t, g, targets, lab)
			rec.id, rec.pattern, rec.created, rec.runs, rec.deltas = msg, randString(rng), created, rng.Int63(), rng.Int63()
			checkSameBytes(t, "session", e.sessionReply(rec), reflectJSON(t, sessionResponse{
				ID: rec.id, Nodes: g.NumNodes(), Edges: g.NumEdges() + len(targets), Targets: edgePairs(targets, lab),
				Pattern: rec.pattern, Created: created, Runs: rec.runs, DeltasApplied: rec.deltas,
			}))
		}

		res := &tpp.Result{
			Method: randString(rng), Protectors: protectors, SimilarityTrace: randTrace(rng, len(protectors)),
			Elapsed: time.Duration(rng.Int63() >> rng.Intn(63)), WarmStart: rng.Intn(2) == 0,
		}
		budget := rng.Intn(20)
		withTargets, omitReleased := rng.Intn(2) == 0, rng.Intn(2) == 0
		want := protectResponse{
			Method: res.Method, Nodes: g.NumNodes(), Edges: g.NumEdges() + len(targets), Budget: budget,
			Protectors: edgePairs(protectors, lab), InitialSimilarity: res.SimilarityTrace[0],
			FinalSimilarity: res.FinalSimilarity(), FullProtection: res.FullProtection(), WarmStart: res.WarmStart,
			SimilarityTrace: res.SimilarityTrace, ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		}
		if withTargets {
			want.Targets = edgePairs(targets, lab)
		}
		if !omitReleased {
			want.ReleasedEdges = edgePairs(p.ProtectedGraph(protectors).Edges(), lab)
		}
		checkSameBytes(t, "protect", e.protectReply(res, p, lab, budget, withTargets, omitReleased), reflectJSON(t, want))
	}
}

// fuzzStringMax bounds the string FuzzReplyEncode encodes.
const fuzzStringMax = 24

// FuzzReplyEncode: for any string and float, the error, DELETE, busy,
// delta and session replies carrying them encode to encoding/json's bytes.
func FuzzReplyEncode(f *testing.F) {
	for i, s := range trickyStrings {
		f.Add(s, trickyFloats[i%len(trickyFloats)], int64(i))
	}
	// One session for every input: only its labels and fields change. The
	// string is cut to fuzzStringMax bytes: every escape the encoder knows
	// fits, and the minimizer, which re-runs each new input once per pair
	// of cut points, would otherwise spend the fuzzing budget on long ones.
	rec := sessionOn(f, graph.New(2), []graph.Edge{{U: 0, V: 1}}, &graph.Labeling{ToName: make([]string, 2)})
	f.Fuzz(func(t *testing.T, s string, x float64, n int64) {
		s = s[:min(len(s), fuzzStringMax)]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // encoding/json refuses these; elapsed times are always finite
		}
		e := newJSONBuf()
		checkSameBytes(t, "error", e.errorReply(s), reflectJSON(t, errorResponse{Error: s}))
		checkSameBytes(t, "deleted", e.deletedReply(s), reflectJSON(t, map[string]string{"status": "deleted", "id": s}))
		busy := busyResponse{Error: s, QueueDepth: n, RetryAfterSeconds: int(n % 61)}
		checkSameBytes(t, "busy", e.busyReply(&busy), reflectJSON(t, busy))
		d := deltaResponse{Inserted: int(n), Nodes: int(n >> 3), ElapsedMS: x}
		checkSameBytes(t, "delta", e.deltaReply(&d), reflectJSON(t, d))
		rec.lab.ToName[0], rec.lab.ToName[1] = s, s+"x"
		rec.id, rec.pattern, rec.created = s, s, time.Unix(0, n).UTC()
		checkSameBytes(t, "session", e.sessionReply(rec), reflectJSON(t, sessionResponse{
			ID: s, Nodes: 2, Edges: 1, Targets: [][2]string{{s, s + "x"}}, Pattern: s, Created: rec.created,
		}))
	})
}

// publishSession builds a publish-shaped session: a DBLP-like graph of
// 2000 nodes labelled "v<id>", 512 sampled targets, pattern Pentagon, and
// one protect run on it.
func publishSession(t testing.TB) (*tpp.Protector, *graph.Labeling, *tpp.Result) {
	t.Helper()
	g := datasets.DBLPSim(2000, 3).Graph
	targets := datasets.SampleTargets(g, 512, rand.New(rand.NewSource(3)))
	lab := &graph.Labeling{ToID: map[string]graph.NodeID{}}
	for i := 0; i < g.NumNodes(); i++ {
		name := "v" + strconv.Itoa(i)
		lab.ToID[name] = graph.NodeID(i)
		lab.ToName = append(lab.ToName, name)
	}
	sess, err := tpp.New(g, targets, tpp.WithPattern(motif.Pentagon), tpp.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sess, lab, res
}

// TestProtectReplyReleasedEdgesMatchRelease: a protect reply's
// released_edges is, pair for pair, edgePairs(Release(res).Edges(), lab),
// and its protectors are edgePairs(res.Protectors, lab).
func TestProtectReplyReleasedEdgesMatchRelease(t *testing.T) {
	sess, lab, res := publishSession(t)
	if len(res.Protectors) == 0 {
		t.Fatal("the run chose no protectors; the test needs some to skip")
	}
	var got protectResponse
	if err := json.Unmarshal(newJSONBuf().protectReply(res, sess.Problem(), lab, 0, false, false).b, &got); err != nil {
		t.Fatal(err)
	}
	want := edgePairs(sess.Release(res).Edges(), lab)
	if len(got.ReleasedEdges) != len(want) {
		t.Fatalf("released_edges has %d pairs, Release(res).Edges() %d", len(got.ReleasedEdges), len(want))
	}
	for i := range want {
		if got.ReleasedEdges[i] != want[i] {
			t.Fatalf("released_edges[%d] = %v, Release(res).Edges() gives %v", i, got.ReleasedEdges[i], want[i])
		}
	}
	protectors := edgePairs(res.Protectors, lab)
	for i := range protectors {
		if got.Protectors[i] != protectors[i] {
			t.Fatalf("protectors[%d] = %v, want %v", i, got.Protectors[i], protectors[i])
		}
	}
}

// TestProtectReplyAllocs pins that encoding a publish-shaped session
// protect reply, released edges included, into a warmed pooled buffer
// allocates nothing.
func TestProtectReplyAllocs(t *testing.T) {
	sess, lab, res := publishSession(t)
	e := newJSONBuf()
	e.protectReply(res, sess.Problem(), lab, 0, false, false)
	allocs := testing.AllocsPerRun(20, func() {
		e.protectReply(res, sess.Problem(), lab, 0, false, false)
	})
	if allocs != 0 {
		t.Fatalf("encoding the protect reply allocated %.1f times per run, want 0", allocs)
	}
}
