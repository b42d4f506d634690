// Command perfbench is the repository benchmark. It starts a real tppd
// subprocess, drives one of three closed-loop traffic mixes at it from two
// client goroutines, checks every protect answer against an in-process
// replay, and prints the run's metrics as one JSON line:
//
//	perfbench -tppd <binary> -workdir <dir> --workload steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same traffic runs again and an in-process replay with spans supplies the
// per-layer ledger. perfbench/run.sh builds both binaries and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

func main() {
	runtime.GOMAXPROCS(2)
	var (
		opt   options
		trace int
	)
	flag.StringVar(&opt.workload, "workload", "", "traffic mix: steady, publish or durable")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = report the per-layer metrics from a traced replay")
	flag.StringVar(&opt.tppd, "tppd", "", "prebuilt tppd binary")
	flag.StringVar(&opt.workDir, "workdir", "", "scratch directory for run dirs and traces")
	flag.Parse()
	opt.trace = trace == 1
	opt.keep = 32
	if opt.tppd == "" || opt.workDir == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -tppd, -workdir and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := workloadConfig(opt.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := benchmark(ctx, opt, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errGate is a protect answer or selection counter the replay disagrees
// with.
var errGate = errors.New("correctness gate failed")

// benchmark runs one workload. A nil result means the run could not
// produce a full metric set; a non-nil result with an error means the
// correctness gate failed.
func benchmark(ctx context.Context, opt options, cfg config) (*result, error) {
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{opt: opt, cfg: cfg}
	if err := r.execute(ctx); err != nil {
		return nil, err
	}
	host := r.hostFacts()
	t := r.totals()
	res := &result{Correct: true, Attempted: t.attempted, Failed: t.failed}
	var metrics map[string]metric
	var err error
	if !opt.trace {
		if metrics, err = r.endToEnd(); err != nil {
			return nil, r.step("end-to-end metrics", err)
		}
	}
	storeDir, err := os.MkdirTemp(opt.workDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	spill := r.spillRate()
	off, gateErr := replay(ctx, cfg, r.logs, false, filepath.Join(storeDir, "off"), spill)
	if gateErr == nil {
		gateErr = r.checkCounters(off)
	}
	if gateErr == nil && opt.trace {
		on, err := replay(ctx, cfg, r.logs, true, filepath.Join(storeDir, "on"), spill)
		if err != nil {
			gateErr = err
		} else {
			var ledgers map[string]*opLedger
			if metrics, ledgers, err = r.perLayer(off, on); err != nil {
				return nil, r.step("per-layer metrics", err)
			}
			host.TraceOverhead = metrics["trace.overhead_ratio"].Value
			if err := writeTrace(opt, on.tr); err != nil {
				return nil, r.step("write trace", err)
			}
			printJSON("ledger", ledgers)
		}
	}
	printJSON("host", host)
	res.Metrics = metrics
	if gateErr != nil {
		res.Correct = false
		return res, r.step("correctness gate", fmt.Errorf("%w: %v", errGate, gateErr))
	}
	return res, nil
}

// spillRate is the share of session touches tppd served by rehydrating a
// spilled session during the measured phase.
func (r *run) spillRate() float64 {
	t := r.totals()
	rehydrated := r.after.prom.sum("tpp_sessions_rehydrated_total") - r.before.prom.sum("tpp_sessions_rehydrated_total")
	return ratio(rehydrated, float64(t.ok-t.perKind[opCreate]))
}

// checkCounters compares the replay's warm and cold selection counts over
// the measured phase with tppd's own counters. Durable sessions may be
// rehydrated from disk mid-run, which resets per-session counters, so the
// check covers steady and publish.
func (r *run) checkCounters(out *replayOut) error {
	if r.cfg.name == "durable" {
		return nil
	}
	d := func(name string) int { return int(r.after.prom.sum(name) - r.before.prom.sum(name)) }
	got := selCounts{
		warm:      d(`tppd_selection_runs_total{mode="warm"}`),
		cold:      d(`tppd_selection_runs_total{mode="cold"}`),
		fallbacks: d("tppd_selection_fallbacks_total"),
	}
	if got != out.measured {
		return fmt.Errorf("selection counters differ: tppd warm/cold/fallbacks %d/%d/%d, replay %d/%d/%d",
			got.warm, got.cold, got.fallbacks, out.measured.warm, out.measured.cold, out.measured.fallbacks)
	}
	return nil
}

func writeTrace(opt options, tr *tracer) error {
	dir := traceDir(opt.workDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, opt.workload+"-seed"+strconv.FormatInt(opt.seed, 10)+".json"))
}

// printJSON prints one labelled report line ahead of the result line.
func printJSON(label string, v any) {
	b, err := json.Marshal(map[string]any{label: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding", label+":", err)
		return
	}
	fmt.Println(string(b))
}
