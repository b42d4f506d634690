package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
)

// gateLog builds one small DBLP-like session in process — create, a churn
// delta, protect — with the protect answer the library gives.
func gateLog(t *testing.T) (config, *sessionLog) {
	t.Helper()
	cfg, err := workloadConfig("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg.scale, cfg.targets = 200, 16
	in, err := dblpInput(cfg, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSessionLog(0, in)
	s.id = "s-0000000000000001"
	pr, err := newProtector(in.mirror, in)
	if err != nil {
		t.Fatal(err)
	}
	s.ops = append(s.ops, opRec{kind: opCreate, phase: phaseSetup, status: 201})
	churn := gen.NewChurn(in.mirror.g, in.mirror.targets, 0.5, rand.New(rand.NewSource(3)))
	op := churnDelta(churn, 4)
	if _, err := pr.Apply(context.Background(), op.d); err != nil {
		t.Fatal(err)
	}
	s.ops = append(s.ops, opRec{kind: opDelta, phase: phaseMeasured, status: 200, delta: &op})
	res, err := pr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) < 2 {
		t.Fatalf("fixture selects %d protectors; want at least 2 to tamper with", len(res.Protectors))
	}
	out := &protectOut{protectors: pairString(edgeLabels(res.Protectors, s.names)), final: res.FinalSimilarity(), released: -1}
	s.ops = append(s.ops, opRec{kind: opProtect, phase: phaseMeasured, status: 200, out: out})
	return cfg, s
}

func TestGateAcceptsMatchingAnswers(t *testing.T) {
	cfg, s := gateLog(t)
	out, err := replay(context.Background(), cfg, []*sessionLog{s}, false, t.TempDir(), 0)
	if err != nil {
		t.Fatalf("replay rejected a faithful log: %v", err)
	}
	if out.measured.cold+out.measured.warm != 1 {
		t.Fatalf("measured selections = %+v, want one run", out.measured)
	}
}

func TestGateRejectsTamperedProtectors(t *testing.T) {
	pairs := func(o *protectOut) []string { return strings.Split(o.protectors, ";") }
	tamper := map[string]func(o *protectOut){
		"swapped": func(o *protectOut) {
			p := pairs(o)
			p[0], p[1] = p[1], p[0]
			o.protectors = strings.Join(p, ";")
		},
		"dropped": func(o *protectOut) { o.protectors = strings.Join(pairs(o)[1:], ";") },
		"renamed": func(o *protectOut) { o.protectors = "v99999" + o.protectors[strings.IndexByte(o.protectors, ','):] },
	}
	for name, fn := range tamper {
		t.Run(name, func(t *testing.T) {
			cfg, s := gateLog(t)
			fn(s.ops[2].out)
			_, err := replay(context.Background(), cfg, []*sessionLog{s}, false, t.TempDir(), 0)
			if err == nil || !strings.Contains(err.Error(), "protectors differ") {
				t.Fatalf("replay error = %v, want a protector mismatch", err)
			}
		})
	}
}

func TestGateRejectsWrongSimilarity(t *testing.T) {
	cfg, s := gateLog(t)
	s.ops[2].out.final++
	_, err := replay(context.Background(), cfg, []*sessionLog{s}, false, t.TempDir(), 0)
	if err == nil || !strings.Contains(err.Error(), "final_similarity") {
		t.Fatalf("replay error = %v, want a similarity mismatch", err)
	}
}

func TestCounterCheck(t *testing.T) {
	r := &run{cfg: config{name: "steady"}}
	r.before.prom = promSample{`tppd_selection_runs_total{mode="warm"}`: 1, `tppd_selection_runs_total{mode="cold"}`: 2}
	r.after.prom = promSample{`tppd_selection_runs_total{mode="warm"}`: 4, `tppd_selection_runs_total{mode="cold"}`: 3, "tppd_selection_fallbacks_total": 1}
	if err := r.checkCounters(&replayOut{measured: selCounts{warm: 3, cold: 1, fallbacks: 1}}); err != nil {
		t.Fatalf("matching counters rejected: %v", err)
	}
	err := r.checkCounters(&replayOut{measured: selCounts{warm: 2, cold: 2, fallbacks: 1}})
	if err == nil {
		t.Fatal("mismatched counters accepted")
	}
	if errors.Is(err, errGate) {
		t.Fatal("checkCounters should return the bare mismatch; benchmark wraps it")
	}
}

// TestReadProtect decodes a response encoded the way tppd's writeJSON
// encodes it.
func TestReadProtect(t *testing.T) {
	for _, full := range []bool{false, true} {
		resp := wireProtectResponse{
			Method:          "sgb",
			Targets:         [][2]string{{"v1", "v2"}},
			Protectors:      [][2]string{{"v3", "v4"}, {"v5", "v6"}},
			FinalSimilarity: 12,
			SimilarityTrace: []int{20, 15, 12},
		}
		want := -1
		if full {
			resp.ReleasedEdges = [][2]string{{"v1", "v3"}, {"v2", "v4"}, {"v7", "v8"}}
			want = 3
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		out, err := readProtect(buf.Bytes(), full)
		if err != nil {
			t.Fatal(err)
		}
		if out.protectors != "v3,v4;v5,v6" || out.final != 12 || out.released != want {
			t.Errorf("full=%v: readProtect = %+v", full, *out)
		}
	}
	empty := []byte("{\n  \"protectors\": [],\n  \"initial_similarity\": 0,\n  \"final_similarity\": 0,\n  \"warm_start\": false\n}\n")
	out, err := readProtect(empty, false)
	if err != nil || out.protectors != "" || out.final != 0 || out.released != -1 {
		t.Errorf("empty protectors: %+v, %v", out, err)
	}
}
