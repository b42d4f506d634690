package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// tppdBin is a tppd built once for the smoke tests.
var tppdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tppdBin = filepath.Join(dir, "tppd")
	build := exec.Command("go", "build", "-o", tppdBin, "repro/cmd/tppd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building tppd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload to a smoke-test size.
func tiny(t *testing.T, name string) config {
	cfg, err := workloadConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.setupReps = 2
	switch name {
	case "steady":
		cfg.sessions, cfg.scale, cfg.targets, cfg.churn = 4, 200, 16, 4
	case "publish":
		cfg.sessions, cfg.scale, cfg.targets = 2, 200, 16
	case "durable":
		cfg.sessions, cfg.memBudget, cfg.durableEvery = 40, "96k", 2
	}
	return cfg
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tppd")
	}
	e2e, layers := declared(t)
	for _, name := range []string{"steady", "publish", "durable"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				opt := options{workload: name, seed: 5, seconds: 0.5, trace: trace,
					tppd: tppdBin, workDir: t.TempDir(), keep: 4}
				res, err := benchmark(context.Background(), opt, tiny(t, name))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := e2e
				if trace {
					want = layers
				}
				for k := range want {
					if _, ok := res.Metrics[k]; !ok {
						t.Errorf("metric %s missing", k)
					}
				}
				for k, m := range res.Metrics {
					if !want[k] {
						t.Errorf("metric %s not declared in BENCHMARK.json", k)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
					}
				}
				left, err := filepath.Glob(filepath.Join(opt.workDir, "run-*"))
				if err != nil || len(left) != 0 {
					t.Errorf("run dirs left behind: %v %v", left, err)
				}
			})
		}
	}
}
