package tpp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/telemetry"
)

// Method names a protector-selection algorithm.
type Method string

const (
	// MethodSGB is SGB-Greedy: single global budget, (1−1/e) guarantee.
	MethodSGB Method = "sgb"
	// MethodCT is CT-Greedy with a budget division, 1/2 guarantee.
	MethodCT Method = "ct"
	// MethodWT is WT-Greedy with a budget division, ≈0.46 guarantee.
	MethodWT Method = "wt"
	// MethodRD / MethodRDT are the random baselines.
	MethodRD  Method = "rd"
	MethodRDT Method = "rdt"
)

// Division names a budget division strategy for MethodCT / MethodWT.
type Division string

const (
	DivisionTBD Division = "tbd"
	DivisionDBD Division = "dbd"
)

// normalizeWorkers resolves a WithWorkers value: non-positive means auto
// (0, deferred to the index builder), anything above GOMAXPROCS is clamped
// — enumeration goroutines beyond the CPU count only add scheduling and
// per-worker scratch.
func normalizeWorkers(n int) int {
	if n <= 0 {
		return 0
	}
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

// Protector is a reusable protection session: one graph, one target set and
// one motif threat model, constructed once with New and driven any number
// of times with Run. The session owns the expensive per-graph state — above
// all the motif index, whose subgraph enumeration dominates the cost of a
// single request — and reuses it across runs, so asking the same session
// for different budgets, methods or divisions pays the enumeration only
// once. Run is safe for concurrent use; runs are serialised internally
// because they share the cached index, and a Run waiting its turn still
// honours its context's cancellation and deadline.
//
// Protector is the front door of this package: cmd/tpp, cmd/tppd and the
// examples all dispatch through it.
type Protector struct {
	problem *Problem
	base    settings

	runSlot        chan struct{}     // capacity 1: serialises runs and deltas, ctx-aware
	ix             *motif.Index      // built on problem.G by the first Run, then reused
	targets        dynamic.TargetSet // problem.Targets as a set, built by the first Apply
	warm           warmState         // warm-start snapshot; serialised on runSlot like ix
	indexBuilds    atomic.Int64      // number of motif.NewIndex calls (observability)
	indexBuildTime atomic.Int64      // total nanoseconds spent enumerating indexes
	deltasApplied  atomic.Int64      // number of Apply calls that committed a delta
	deltaTime      atomic.Int64      // total nanoseconds spent applying deltas
	warmRuns       atomic.Int64      // SGB selections served by warm-start replay
	coldRuns       atomic.Int64      // SGB selections run cold (incl. fallbacks)
	warmFallbacks  atomic.Int64      // warm attempts abandoned (threshold/divergence)
}

// settings is the resolved option set for a session or a single run.
type settings struct {
	pattern  motif.Pattern
	method   Method
	division Division
	budget   int
	workers  int
	seed     int64
	progress ProgressFunc
	warmOff  bool
	// engineErr is WithEngine's verdict: non-nil when it asked for an
	// engine a session cannot run. validate reports it.
	engineErr error
}

// sessionOptions is the one engine and scope every session selects with:
// the motif index, over the paper's Lemma 5 candidate scope. The recount
// engine and the all-edges scope are the free functions' (Options).
var sessionOptions = Options{Engine: EngineIndexed, Scope: ScopeTargetSubgraphs}

func defaultSettings() settings {
	return settings{
		pattern:  motif.Triangle,
		method:   MethodSGB,
		division: DivisionTBD,
		budget:   0, // critical budget k*
		seed:     1,
	}
}

func (s *settings) validate() error {
	if s.engineErr != nil {
		return s.engineErr
	}
	switch s.method {
	case MethodSGB, MethodCT, MethodWT, MethodRD, MethodRDT:
	default:
		return fmt.Errorf("%w: %q", ErrUnknownMethod, s.method)
	}
	switch s.division {
	case DivisionTBD, DivisionDBD:
	default:
		return fmt.Errorf("%w: %q", ErrUnknownDivision, s.division)
	}
	if s.budget < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeBudget, s.budget)
	}
	return nil
}

// Option configures a Protector at construction time (New) or a single run
// (Run). Per-run options override the session's, except WithPattern, which
// Run rejects: the pattern is part of the session's identity.
type Option func(*settings)

// WithPattern sets the motif threat model (default Triangle). Valid only at
// New; a Run passing a different pattern fails with ErrPatternFixed.
func WithPattern(p motif.Pattern) Option { return func(s *settings) { s.pattern = p } }

// WithMethod selects the protector-selection algorithm (default MethodSGB).
func WithMethod(m Method) Option {
	return func(s *settings) {
		if m != "" {
			s.method = m
		}
	}
}

// WithDivision selects the budget division for MethodCT / MethodWT
// (default DivisionTBD). Ignored by the other methods.
func WithDivision(d Division) Option {
	return func(s *settings) {
		if d != "" {
			s.division = d
		}
	}
}

// WithBudget caps the number of protector deletions. Zero (the default)
// selects the critical budget k*: the smallest budget achieving full
// protection. Negative budgets fail validation with ErrNegativeBudget.
func WithBudget(k int) Option { return func(s *settings) { s.budget = k } }

// WithEngine names the gain-evaluation engine. A session has one,
// EngineIndexed, so this option only accepts it: New and Run reject any
// other engine with ErrUnknownEngine. The paper's recount engine runs
// through the free functions (SGBGreedy, CTGreedy, WTGreedy, CriticalBudget)
// with Options{Engine: EngineRecount}. The option goes once the benchmark
// (perfbench) stops calling it.
func WithEngine(e Engine) Option {
	return func(s *settings) {
		s.engineErr = nil
		if e != EngineIndexed {
			s.engineErr = errSessionEngine(e)
		}
	}
}

// errSessionEngine is the error for an engine a session cannot run.
func errSessionEngine(e Engine) error {
	return fmt.Errorf("%w: %q (a session selects only through the motif index; "+
		"run %s through the free functions with tpp.Options{Engine: tpp.EngineRecount})", ErrUnknownEngine, e, e)
}

// WithWorkers sets the number of workers that enumerate target subgraphs
// when the session builds its motif index (default 0 = auto, GOMAXPROCS).
// Greedy selection itself always runs on one goroutine. Selections are
// identical for every worker count; values above GOMAXPROCS are clamped
// to it.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithSeed seeds the random baselines. Only MethodRD and MethodRDT consume
// randomness; the seed is ignored by the deterministic greedy methods.
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithWarmStart toggles the warm-start selection engine (default on): with
// it on, an SGB run after one or more Applies replays the previous run's
// selection and re-verifies it against the incrementally maintained index
// instead of selecting from scratch, falling back to a cold run whenever the
// replay cannot be proven exact. Selections are bit-identical either way —
// the toggle trades the snapshot bookkeeping for reproducing pure cold-run
// timings (benchmark baselines). Usable per session or per run.
func WithWarmStart(on bool) Option { return func(s *settings) { s.warmOff = !on } }

// WithProgress installs a per-step callback (see ProgressFunc). Useful for
// live reporting and for cancelling a run from within via its context.
func WithProgress(fn ProgressFunc) Option { return func(s *settings) { s.progress = fn } }

// New constructs a protection session for the graph and target links.
// It validates the targets (each must be a distinct existing edge) and the
// options eagerly, so a server can map a New failure to a bad request.
// The session keeps its own phase-1 copy of the graph (see NewProblem), so
// g is neither retained nor mutated; the motif index is built on first Run.
func New(g *graph.Graph, targets []graph.Edge, opts ...Option) (*Protector, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	problem, err := NewProblem(g, s.pattern, targets)
	if err != nil {
		return nil, err
	}
	return &Protector{
		problem: problem,
		base:    s,
		runSlot: make(chan struct{}, 1),
	}, nil
}

// Problem exposes the session's problem instance: its phase-1 graph and
// canonicalised targets. It is live session state that Apply updates in
// place; callers read it between session operations and never mutate it.
func (pr *Protector) Problem() *Problem { return pr.problem }

// IndexBuilds reports how many times the session has built a motif index —
// 1 after any number of runs is the reuse working as intended.
func (pr *Protector) IndexBuilds() int { return int(pr.indexBuilds.Load()) }

// IndexBuildTime reports the total wall-clock time this session has spent
// enumerating motif indexes — the dominant cost of a protection request,
// paid once per session and amortised across runs.
func (pr *Protector) IndexBuildTime() time.Duration {
	return time.Duration(pr.indexBuildTime.Load())
}

// Run executes one protection request: phase-2 protector selection under
// the session's options merged with the per-run overrides. It honours ctx
// throughout — an already-cancelled context returns ctx.Err() before any
// work, and cancellation mid-selection aborts between greedy steps.
//
// Reusing the session is the fast path: the first run enumerates
// the target subgraphs once (motif.NewIndex), and every later run resets
// and reuses that index instead of re-enumerating.
func (pr *Protector) Run(ctx context.Context, opts ...Option) (*Result, error) {
	s := pr.base
	for _, o := range opts {
		o(&s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.pattern != pr.problem.Pattern {
		return nil, ErrPatternFixed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Take the session's run slot; unlike a mutex the wait is abandoned
	// the moment ctx dies, so a queued request never outlives its deadline.
	// (The explicit check above matters: select picks randomly among ready
	// cases, so a dead ctx could otherwise still win a free slot.)
	select {
	case pr.runSlot <- struct{}{}:
		defer func() { <-pr.runSlot }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	env := runEnv{ctx: ctx, progress: s.progress, workers: normalizeWorkers(s.workers), stages: telemetry.FromContext(ctx)}
	if pr.ix == nil {
		ix, err := motif.NewIndexWorkers(pr.problem.G, pr.problem.Pattern, pr.problem.Targets, env.workers)
		if err != nil {
			return nil, err
		}
		pr.ix = ix
		pr.indexBuilds.Add(1)
		pr.indexBuildTime.Add(int64(ix.BuildStats().Elapsed))
		ix.BuildStats().Record(env.stages)
	} else {
		pr.ix.Reset()
	}
	env.ix = pr.ix

	if s.method == MethodSGB {
		// Budget 0 = critical budget k*: the unbounded SGB run is itself the
		// answer (greedy stops exactly when every gain is zero). All SGB
		// selection — warm or cold — dispatches through sgbSession.
		budget := s.budget
		if budget <= 0 {
			budget = maxBudget
		}
		return pr.sgbSession(&s, env, budget)
	}

	budget := s.budget
	if budget <= 0 {
		// Critical budget k* for the other methods: an unbounded SGB sizing
		// probe whose length becomes the budget. It must not leak its steps
		// to the caller's progress callback; being an SGB selection, it
		// warm-starts like one.
		probeEnv := env
		probeEnv.progress = nil
		probe, err := pr.sgbSession(&s, probeEnv, maxBudget)
		if err != nil {
			return nil, err
		}
		budget = len(probe.Protectors)
		env.ix.Reset()
	}

	switch s.method {
	case MethodCT, MethodWT:
		budgets, err := pr.divide(s.division, budget, env.ix)
		if err != nil {
			return nil, err
		}
		var res *Result
		if s.method == MethodCT {
			res, err = ctGreedy(pr.problem, budgets, sessionOptions, env)
		} else {
			res, err = wtGreedy(pr.problem, budgets, sessionOptions, env)
		}
		return recordSelection(res, err, env.stages)
	case MethodRD:
		res, err := randomDeletion(pr.problem, budget, rand.New(rand.NewSource(s.seed)), env)
		return recordSelection(res, err, env.stages)
	case MethodRDT:
		res, err := randomDeletionFromTargets(pr.problem, budget, rand.New(rand.NewSource(s.seed)), env)
		return recordSelection(res, err, env.stages)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, s.method) // unreachable: validate caught it
}

// recordSelection attributes a completed non-SGB selection's wall time to
// the cold-select stage (the baselines have no warm path) and passes the
// result pair through untouched.
func recordSelection(res *Result, err error, sp *telemetry.Stages) (*Result, error) {
	if err == nil {
		sp.Add(telemetry.StageColdSelect, res.Elapsed)
	}
	return res, err
}

// divide computes the per-target sub budgets. The TBD weights (initial
// per-target similarities) are read off the session's freshly reset index.
func (pr *Protector) divide(d Division, k int, ix *motif.Index) ([]int, error) {
	switch d {
	case DivisionTBD:
		return TBD(k, ix.Similarities())
	case DivisionDBD:
		return DBDForProblem(pr.problem, k)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDivision, d)
}

// Release materialises the released graph for a result of this session:
// a fresh copy of the phase-1 graph (the original minus the targets) minus
// the selected protectors (phase 2).
func (pr *Protector) Release(res *Result) *graph.Graph {
	return pr.problem.ProtectedGraph(res.Protectors)
}

// ParseMethod maps the wire/CLI spelling of a method ("sgb", "ct", "wt",
// "rd", "rdt"; empty selects the default MethodSGB) to its Method, or
// fails with ErrUnknownMethod.
func ParseMethod(s string) (Method, error) {
	switch m := Method(s); m {
	case "":
		return MethodSGB, nil
	case MethodSGB, MethodCT, MethodWT, MethodRD, MethodRDT:
		return m, nil
	default:
		return "", fmt.Errorf("%w: %q (want sgb, ct, wt, rd or rdt)", ErrUnknownMethod, s)
	}
}

// ParseEngine maps the wire spelling of a session's engine ("indexed";
// empty selects it too) to EngineIndexed, or fails with ErrUnknownEngine.
// "recount" fails as well: a session has no recount engine, and the error
// says where recount runs. Like WithEngine, it goes once the benchmark
// (perfbench) stops calling it.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "indexed":
		return EngineIndexed, nil
	case "recount":
		return 0, errSessionEngine(EngineRecount)
	default:
		return 0, fmt.Errorf("%w: %q (want indexed)", ErrUnknownEngine, s)
	}
}

// ParseDivision maps the wire/CLI spelling of a budget division ("tbd",
// "dbd"; empty selects the default DivisionTBD) to its Division, or fails
// with ErrUnknownDivision.
func ParseDivision(s string) (Division, error) {
	switch d := Division(s); d {
	case "":
		return DivisionTBD, nil
	case DivisionTBD, DivisionDBD:
		return d, nil
	default:
		return "", fmt.Errorf("%w: %q (want tbd or dbd)", ErrUnknownDivision, s)
	}
}
