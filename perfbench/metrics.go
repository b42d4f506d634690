package main

import (
	"fmt"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measuredTotals counts the measured phase's attempts, acknowledgements and
// bytes.
type measuredTotals struct {
	attempted, ok, failed int
	reqBytes, respBytes   int64
	perKind               [numOps]int
}

func (r *run) totals() measuredTotals {
	var t measuredTotals
	for _, s := range r.logs {
		for i := range s.ops {
			op := &s.ops[i]
			if op.phase != phaseMeasured {
				continue
			}
			t.attempted++
			t.reqBytes += int64(op.reqBytes)
			t.respBytes += int64(op.respBytes)
			if op.ok() {
				t.ok++
				t.perKind[op.kind]++
			} else {
				t.failed++
			}
		}
	}
	return t
}

// measuredOps returns the measured phase's acknowledged ops of kind; it
// is empty for a kind the workload's loop does not run.
func measuredOps(logs []*sessionLog, kind opKind) []*opRec {
	var out []*opRec
	for _, s := range logs {
		for i := range s.ops {
			op := &s.ops[i]
			if op.kind == kind && op.phase == phaseMeasured && op.ok() {
				out = append(out, op)
			}
		}
	}
	return out
}

func latenciesMS(ops []*opRec) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.lat)
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (r *run) endToEnd() (map[string]metric, error) {
	t := r.totals()
	if t.ok == 0 {
		return nil, fmt.Errorf("no acknowledged op in the measured phase")
	}
	_, cpuPerOp := r.windowRates()
	if len(cpuPerOp) == 0 {
		return nil, fmt.Errorf("no acknowledged op in a sampled window")
	}
	rss := make([]float64, len(r.windows))
	for i, w := range r.windows {
		rss[i] = float64(w.rss) / (1 << 20)
	}
	m := map[string]metric{
		"cpu_us_per_op": {median(cpuPerOp), "us"},
		"rss_mb":        {median(rss), "MB"},
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = metric{median(setups), "s"}
	return m, nil
}

// windowRates splits the measured phase at tppd's samples and returns,
// per window, the acknowledged ops per second and tppd's CPU per
// acknowledged op. A last window shorter than half the sample spacing is
// dropped, as is the CPU figure of a window without an acknowledged op.
func (r *run) windowRates() (opsPerS, cpuUSPerOp []float64) {
	w := r.windows
	if n := len(w); n > 2 && w[n-1].at.Sub(w[n-2].at) < windowWidth/2 {
		w = w[:n-1]
	}
	if len(w) < 2 {
		return nil, nil
	}
	counts := make([]int, len(w)-1)
	for _, s := range r.logs {
		for i := range s.ops {
			op := &s.ops[i]
			if op.phase != phaseMeasured || !op.ok() {
				continue
			}
			// The window k with w[k].at <= done < w[k+1].at.
			k := sort.Search(len(w), func(k int) bool { return w[k].at.After(op.done) }) - 1
			if k >= 0 && k < len(counts) {
				counts[k]++
			}
		}
	}
	for k, c := range counts {
		opsPerS = append(opsPerS, float64(c)/w[k+1].at.Sub(w[k].at).Seconds())
		if c > 0 {
			cpuUSPerOp = append(cpuUSPerOp, us(w[k+1].cpu-w[k].cpu)/float64(c))
		}
	}
	return opsPerS, cpuUSPerOp
}

// opLedger is one op kind's mean time split by layer.
type opLedger struct {
	ClientUS float64            `json:"client_mean_us"`
	LibUS    float64            `json:"library_mean_us"`
	Layers   map[string]float64 `json:"layer_self_us"`
	Dominant string             `json:"dominant"`
	Share    float64            `json:"dominant_share"`
	Samples  int                `json:"samples"`
}

// perLayer computes the per-layer metrics of a traced run from the server
// counters, the codec samples and the traced replay (on) against the same
// replay with spans off (off).
func (r *run) perLayer(off, on *replayOut) (map[string]metric, map[string]*opLedger, error) {
	t := r.totals()
	if t.ok == 0 {
		return nil, nil, fmt.Errorf("no acknowledged op in the measured phase")
	}
	okOps := float64(t.ok)
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	opsPerS, _ := r.windowRates()
	set("tppd.ops_per_s", "ops/s", median(opsPerS))

	spans := on.tr.spans
	self := selfTimes(spans)
	// Library time of an op: its root's non-dup direct children.
	lib := map[int32]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 && !s.Dup {
			lib[s.Op] += s.dur()
		}
	}
	durableSampled := map[*opRec]bool{}
	if r.cfg.durableEvery > 0 {
		for _, s := range r.logs {
			if s.idx%r.cfg.durableEvery == 0 {
				for i := range s.ops {
					durableSampled[&s.ops[i]] = true
				}
			}
		}
	}

	// inSample holds every measured op; inLedger those whose time the
	// ledger splits (on durable, the sessions that ran the durable layer).
	inSample := map[int32]bool{}
	inLedger := map[int32]opKind{}
	ledgers := map[string]*opLedger{}
	for k := opKind(0); k < numOps; k++ {
		ops := measuredOps(r.logs, k)
		var client, libUS []float64
		led := &opLedger{Layers: map[string]float64{}}
		for _, op := range ops {
			id, ok := on.opIDs[op]
			if !ok {
				continue
			}
			inSample[id] = true
			if r.cfg.durableEvery > 0 && !durableSampled[op] {
				continue // the durable layer ran only for sampled sessions
			}
			inLedger[id] = k
			client = append(client, us(op.lat))
			libUS = append(libUS, float64(lib[id])/1e3)
		}
		led.Samples = len(client)
		led.ClientUS, led.LibUS = mean(client), mean(libUS)
		set("tppd."+opNames[k]+"_residual_us", "us", median(client)-median(libUS))
		lat := latenciesMS(ops)
		set("tppd."+opNames[k]+"_p50_ms", "ms", median(lat))
		set("tppd."+opNames[k]+"_p99_ms", "ms", percentile(lat, 99))
		set("tppd."+opNames[k]+"_samples", "count", float64(len(lat)))
		ledgers[opNames[k]] = led
	}
	// Layer self time per op, over each kind's sample set.
	durCount := map[string][]float64{}
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if inSample[s.Op] {
			durCount[s.Name] = append(durCount[s.Name], float64(s.dur())/1e3)
		}
		if k, ok := inLedger[s.Op]; ok && !s.Dup {
			ledgers[opNames[k]].Layers[s.layer()] += float64(self[i]) / 1e3
		}
	}
	for _, led := range ledgers {
		for l := range led.Layers {
			led.Layers[l] = ratio(led.Layers[l], float64(led.Samples))
		}
		led.Layers["tppd"] = led.ClientUS - led.LibUS
		for l, v := range led.Layers {
			if v > led.Share || led.Dominant == "" {
				led.Dominant, led.Share = l, v
			}
		}
		led.Share = ratio(led.Share, led.ClientUS)
	}
	for _, name := range spanMetrics {
		set(name+"_us", "us", mean(durCount[name]))
	}

	// Codec work on the exact bytes exchanged, mix-weighted by the
	// measured op counts.
	var dec, enc [numOps][]float64
	for _, c := range r.clients {
		for _, s := range c.samples {
			d, e, err := codecTimes(s)
			if err != nil {
				return nil, nil, fmt.Errorf("timing %s codec: %w", opNames[s.kind], err)
			}
			dec[s.kind] = append(dec[s.kind], us(d))
			enc[s.kind] = append(enc[s.kind], us(e))
		}
	}
	var decUS, encUS float64
	for k := opKind(0); k < numOps; k++ {
		w := float64(t.perKind[k]) / okOps
		decUS += w * median(dec[k])
		encUS += w * median(enc[k])
	}
	set("tppd.decode_us", "us", decUS)
	set("tppd.encode_us", "us", encUS)
	set("tppd.request_bytes_per_op", "B", float64(t.reqBytes)/okOps)
	set("tppd.response_bytes_per_op", "B", float64(t.respBytes)/okOps)

	delta := func(name string) float64 { return r.after.prom.sum(name) - r.before.prom.sum(name) }
	set("tppd.busy_rejections", "count", delta("tppd_busy_rejections_total"))
	set("tppd.failed_ratio", "ratio", ratio(float64(t.failed), float64(t.attempted)))
	set("runtime.alloc_kb_per_op", "KiB", float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc)/1024/okOps)
	set("runtime.gc_per_kop", "count", float64(r.after.mem.NumGC-r.before.mem.NumGC)*1000/okOps)
	set("driver.cpu_us_per_op", "us", us(r.after.driverCPU-r.before.driverCPU)/okOps)

	set("motif.touched_targets_per_delta", "count", mean(on.touched))
	runs := float64(on.measured.warm + on.measured.cold)
	set("tpp.warm_hit_ratio", "ratio", ratio(float64(on.measured.warm), runs))
	set("tpp.selection_runs", "count", runs)

	fsyncs := delta("tpp_wal_fsync_seconds_count")
	set("durable.fsync_ms", "ms", ratio(delta("tpp_wal_fsync_seconds_sum")*1e3, fsyncs))
	set("durable.snapshot_bytes", "B", mean(on.snapSizes))
	rehydrated := delta("tpp_sessions_rehydrated_total")
	set("durable.rehydrates_per_op", "count", rehydrated/okOps)
	set("durable.spills_per_op", "count", delta("tppd_sessions_spilled_total")/okOps)
	set("durable.wal_appends_per_op", "count", delta("tpp_wal_appends_total")/okOps)
	touches := float64(t.ok - t.perKind[opCreate])
	set("shard.touches", "count", touches)
	set("shard.resident_hit_ratio", "ratio", 1-ratio(rehydrated, touches))
	set("shard.resident_mb", "MB", r.after.prom.sum("tpp_shard_bytes")/(1<<20))
	set("tppd.peak_rss_mb", "MB", float64(r.rssBytes)/(1<<20))

	set("host.steal_ratio", "ratio", stealShare(r.before.stat, r.after.stat))
	set("trace.overhead_ratio", "ratio", ratio(float64(on.wall-off.wall), float64(off.wall)))
	return m, ledgers, nil
}

// spanMetrics are the spans reported as "<span>_us": mean duration per
// call over the measured ops.
var spanMetrics = []string{
	"graph.build",
	"dynamic.canonicalize", "dynamic.validate",
	"motif.enumerate", "motif.delta_apply",
	"tpp.new", "tpp.apply", "tpp.run", "tpp.warm_replay", "tpp.cold_select", "tpp.score",
	"tpp.memfootprint", "tpp.release", "tpp.snapshot", "tpp.restore",
	"durable.create", "durable.wal_append", "durable.encode", "durable.decode",
	"durable.recover", "durable.snapshot",
	"shard.account",
}
