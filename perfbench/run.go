package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tppd     string // prebuilt tppd binary
	workDir  string // scratch root; the run gets a fresh dir under it
	keep     int    // codec samples kept per op kind and client
}

const clients = 2

// stepError names the workload step that failed.
type stepError struct {
	workload, step string
	err            error
}

func (e *stepError) Error() string { return fmt.Sprintf("%s: %s: %v", e.workload, e.step, e.err) }
func (e *stepError) Unwrap() error { return e.err }

// run is one benchmark run: inputs, set-up, measured phase, then the
// correctness gate and, with tracing, the replay that feeds the per-layer
// ledger.
type run struct {
	opt     options
	cfg     config
	inputs  []*graphInput
	runDir  string
	srv     *server
	logs    []*sessionLog          // every session's log from the kept set-up on
	parts   [clients][]*sessionLog // each client's share of the set-up sessions
	clients [clients]*client

	setups   []time.Duration
	measured time.Duration
	start    time.Time // start of the measured phase
	before   probe
	after    probe
	windows  []window        // tppd sampled about once a second through the measured phase
	rssBytes int64           // tppd's peak resident set at the end of the measured phase
	tppdProc int             // tppd's GOMAXPROCS
	ctx      context.Context // cancelled on SIGINT/SIGTERM: requests fail and the run unwinds
	mu       sync.Mutex      // guards logs while the clients run
}

// window is one sample of tppd taken while the clients run.
type window struct {
	at  time.Time
	cpu time.Duration // user+system CPU so far
	rss int64         // resident set
}

// probe is the server and host state sampled at the edges of the measured
// phase.
type probe struct {
	prom      promSample
	mem       memStats
	tppdCPU   time.Duration
	driverCPU time.Duration
	stat      cpuStat
}

func (r *run) step(step string, err error) error {
	if err == nil {
		return nil
	}
	return &stepError{workload: r.cfg.name, step: step, err: err}
}

// execute performs the run and leaves no process or data dir behind.
func (r *run) execute(ctx context.Context) (err error) {
	r.ctx = ctx
	dir, err := os.MkdirTemp(r.opt.workDir, "run-"+r.cfg.name+"-")
	if err != nil {
		return r.step("make run dir", err)
	}
	r.runDir = dir
	defer os.RemoveAll(dir)
	defer func() { r.srv.stop() }()

	if err := r.step("generate inputs", r.generate()); err != nil {
		return err
	}
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		if err := r.step("set up", r.setup()); err != nil {
			return err
		}
		if rep < r.cfg.setupReps-1 {
			r.srv.stop() // only the last set-up's server is measured
		}
	}
	if err := r.step("sample before", r.sample(&r.before)); err != nil {
		return err
	}
	r.start = time.Now()
	stopSampling := r.sampleWindows()
	err = r.parallel(r.loop)
	serr := stopSampling()
	if err := r.step("measure", err); err != nil {
		return err
	}
	if err := r.step("sample tppd", serr); err != nil {
		return err
	}
	r.measured = time.Since(r.start)
	if err := r.step("sample after", r.sample(&r.after)); err != nil {
		return err
	}
	if r.rssBytes, err = procMem(r.srv.pid(), "VmHWM"); err != nil {
		return r.step("read peak rss", err)
	}
	st, err := r.srv.stats()
	if err != nil {
		return r.step("read stats", err)
	}
	r.tppdProc = st.MaxWorkers
	for _, c := range r.clients {
		c.close()
	}
	r.srv.stop()
	return nil
}

// generate builds every input before any clock starts.
func (r *run) generate() error {
	n := r.cfg.sessions
	r.inputs = make([]*graphInput, n)
	for i := range r.inputs {
		var err error
		if r.cfg.name == "durable" {
			r.inputs[i], err = ringInput(r.cfg, r.opt.seed, i)
		} else {
			r.inputs[i], err = dblpInput(r.cfg, r.opt.seed, i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// setup launches a fresh tppd and seeds it; its wall time, from launch
// through the last seeding request, is one setup_s sample.
func (r *run) setup() error {
	var extra []string
	durable := r.cfg.name == "durable"
	if durable {
		extra = []string{"-wal-sync=true", "-mem-budget", r.cfg.memBudget}
	}
	start := time.Now()
	srv, err := startServer(r.opt.tppd, r.runDir, durable, extra)
	if err != nil {
		return err
	}
	r.srv = srv
	r.logs = nil
	for c, old := range r.clients {
		if old != nil {
			old.close() // its server is gone
		}
		r.clients[c] = newClient(r.ctx, srv.base, r.opt.keep)
	}
	if r.cfg.name == "publish" {
		// Warm-up: one full cycle per client before anything is timed.
		logs := make([]*sessionLog, clients)
		for c := range logs {
			logs[c] = newSessionLog(-1-c, r.inputs[c%len(r.inputs)])
		}
		if err := r.parallel(func(c int) error {
			cl, s := r.clients[c], logs[c]
			if err := cl.create(s, phaseSetup); err != nil {
				return err
			}
			if err := cl.protect(s, phaseSetup, true); err != nil {
				return err
			}
			return cl.remove(s, phaseSetup)
		}); err != nil {
			return err
		}
		r.logs = logs
	} else {
		logs := make([]*sessionLog, r.cfg.sessions)
		for i := range logs {
			logs[i] = newSessionLog(i, r.inputs[i])
		}
		if err := r.parallel(func(c int) error {
			for i := c; i < len(logs); i += clients {
				if err := r.clients[c].create(logs[i], phaseSetup); err != nil {
					return err
				}
				if r.cfg.name == "steady" {
					if err := r.clients[c].protect(logs[i], phaseSetup, false); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
		r.logs = logs
	}
	r.setups = append(r.setups, time.Since(start))
	for c := range r.parts {
		r.parts[c] = nil
		for i := c; i < len(r.logs); i += clients {
			r.parts[c] = append(r.parts[c], r.logs[i])
		}
	}
	if r.cfg.name == "steady" {
		for _, s := range r.logs {
			s.churn = gen.NewChurn(s.in.mirror.g, s.in.mirror.targets, 0.5,
				rand.New(rand.NewSource(mixSeed(r.opt.seed, seedChurn, s.idx))))
		}
	}
	return nil
}

// parallel runs fn once per client and returns the first error.
func (r *run) parallel(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *run) sample(p *probe) error {
	var err error
	if p.prom, err = r.srv.scrape(); err != nil {
		return err
	}
	if p.mem, err = r.srv.memstats(); err != nil {
		return err
	}
	if p.tppdCPU, err = procCPU(strconv.Itoa(r.srv.pid())); err != nil {
		return err
	}
	if p.driverCPU, err = procCPU("self"); err != nil {
		return err
	}
	p.stat, err = readCPUStat()
	return err
}

// windowWidth is the spacing of the measured phase's tppd samples.
const windowWidth = time.Second

// sampleWindows samples tppd's CPU time and resident set now and then
// every windowWidth until the returned function is called, which takes a
// last sample and reports the first failure.
func (r *run) sampleWindows() func() error {
	pid := r.srv.pid()
	take := func() error {
		at := time.Now()
		cpu, err := procCPU(strconv.Itoa(pid))
		if err != nil {
			return err
		}
		rss, err := procMem(pid, "VmRSS")
		if err != nil {
			return err
		}
		r.windows = append(r.windows, window{at: at, cpu: cpu, rss: rss})
		return nil
	}
	r.windows = nil
	err := take()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(windowWidth)
		defer tick.Stop()
		for err == nil {
			select {
			case <-done:
				return
			case <-tick.C:
				err = take()
			}
		}
	}()
	return func() error {
		close(done)
		<-finished
		if err != nil {
			return err
		}
		return take()
	}
}

// adopt records a session a client starts during the measured loop.
func (r *run) adopt(s *sessionLog) {
	r.mu.Lock()
	r.logs = append(r.logs, s)
	r.mu.Unlock()
}

// loop is client c's closed loop for the measured phase.
func (r *run) loop(c int) error {
	cl := r.clients[c]
	cl.measure = true
	defer func() { cl.measure = false }()
	rng := rand.New(rand.NewSource(mixSeed(r.opt.seed, seedClient, c)))
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	mine := slices.Clone(r.parts[c])
	switch r.cfg.name {
	case "steady":
		for time.Now().Before(deadline) {
			s := mine[rng.Intn(len(mine))]
			if err := cl.delta(s, phaseMeasured, churnDelta(s.churn, r.cfg.churn)); err != nil {
				return err
			}
			if err := cl.protect(s, phaseMeasured, false); err != nil {
				return err
			}
		}
	case "publish":
		for k := 0; time.Now().Before(deadline); k++ {
			in := r.inputs[rng.Intn(len(r.inputs))]
			s := newSessionLog(c+clients*k, in)
			r.adopt(s)
			if err := cl.create(s, phaseMeasured); err != nil {
				return err
			}
			if err := cl.protect(s, phaseMeasured, true); err != nil {
				return err
			}
			if err := cl.remove(s, phaseMeasured); err != nil {
				return err
			}
		}
	case "durable":
		var total int
		for _, w := range r.cfg.mix {
			total += w
		}
		created, seq := 0, 0
		for time.Now().Before(deadline) {
			roll, op := rng.Intn(total), opCreate
			for ; roll >= r.cfg.mix[op]; op++ {
				roll -= r.cfg.mix[op]
			}
			if len(mine) == 0 {
				op = opCreate
			}
			var err error
			switch op {
			case opCreate:
				idx := r.cfg.sessions + c + clients*created
				created++
				in, gerr := ringInput(r.cfg, r.opt.seed, idx)
				if gerr != nil {
					return gerr
				}
				s := newSessionLog(idx, in)
				r.adopt(s)
				mine = append(mine, s)
				err = cl.create(s, phaseMeasured)
			case opDelta:
				s := mine[rng.Intn(len(mine))]
				seq++
				label := "x" + strconv.Itoa(c) + "-" + strconv.Itoa(seq)
				err = cl.delta(s, phaseMeasured, attachDelta(rng, label, len(s.names)))
			case opProtect:
				err = cl.protect(mine[rng.Intn(len(mine))], phaseMeasured, true)
			case opDelete:
				i := rng.Intn(len(mine))
				s := mine[i]
				mine[i] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				err = cl.remove(s, phaseMeasured)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// traceDir is where traced runs leave their spans.
func traceDir(workDir string) string { return filepath.Join(workDir, "traces") }
