package tpp

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

func sessionTestInstance(t *testing.T) (*graph.Graph, []graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	g := gen.BarabasiAlbertTriad(80, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	return g, targets
}

// legacyDispatch runs the method through the free functions, with fresh
// state per call, as the golden reference for the session's default
// behaviour.
func legacyDispatch(t *testing.T, g *graph.Graph, targets []graph.Edge,
	method Method, division Division, budget int, seed int64) *Result {
	t.Helper()
	problem, err := NewProblem(g, motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	fast := Options{Engine: EngineIndexed, Scope: ScopeTargetSubgraphs}
	if budget <= 0 {
		kstar, res, err := CriticalBudget(problem, fast)
		if err != nil {
			t.Fatal(err)
		}
		if method == MethodSGB {
			return res
		}
		budget = kstar
	}
	var res *Result
	switch method {
	case MethodSGB:
		res, err = SGBGreedy(problem, budget, fast)
	case MethodCT, MethodWT:
		var budgets []int
		if division == DivisionTBD {
			budgets, err = TBDForProblem(problem, budget)
		} else {
			budgets, err = DBDForProblem(problem, budget)
		}
		if err != nil {
			t.Fatal(err)
		}
		if method == MethodCT {
			res, err = CTGreedy(problem, budgets, Options{Engine: EngineIndexed})
		} else {
			res, err = WTGreedy(problem, budgets, Options{Engine: EngineIndexed})
		}
	case MethodRD:
		res, err = RandomDeletion(problem, budget, rand.New(rand.NewSource(seed)))
	case MethodRDT:
		res, err = RandomDeletionFromTargets(problem, budget, rand.New(rand.NewSource(seed)))
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSessionMatchesLegacyDispatch pins the session defaults to the free
// functions: identical protector selections and similarity traces for every
// method × division at both a fixed and the critical budget. It also pins
// the release contract: the input graph is never mutated, and the released
// graph holds no target and, under full protection, no completable target
// motif.
func TestSessionMatchesLegacyDispatch(t *testing.T) {
	g, targets := sessionTestInstance(t)
	origEdges := g.Edges()
	const seed = 7
	for _, method := range []Method{MethodSGB, MethodCT, MethodWT, MethodRD, MethodRDT} {
		for _, division := range []Division{DivisionTBD, DivisionDBD} {
			for _, budget := range []int{0, 5} {
				want := legacyDispatch(t, g, targets, method, division, budget, seed)
				session, err := New(g, targets,
					WithMethod(method), WithDivision(division),
					WithBudget(budget), WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := session.Run(context.Background())
				if err != nil {
					t.Fatalf("%s/%s/k=%d: %v", method, division, budget, err)
				}
				if !reflect.DeepEqual(got.Protectors, want.Protectors) {
					t.Fatalf("%s/%s/k=%d: protectors differ:\nsession %v\nlegacy  %v",
						method, division, budget, got.Protectors, want.Protectors)
				}
				if !reflect.DeepEqual(got.SimilarityTrace, want.SimilarityTrace) {
					t.Fatalf("%s/%s/k=%d: traces differ", method, division, budget)
				}
				released := session.Release(got)
				for _, tg := range targets {
					if released.HasEdgeE(tg) {
						t.Fatalf("%s/%s/k=%d: target %v in release", method, division, budget, tg)
					}
					if got.FullProtection() && motif.Count(released, motif.Triangle, tg) != 0 {
						t.Fatalf("%s/%s/k=%d: target %v still completable", method, division, budget, tg)
					}
				}
				if !reflect.DeepEqual(g.Edges(), origEdges) {
					t.Fatalf("%s/%s/k=%d: session mutated the input graph", method, division, budget)
				}
			}
		}
	}
}

func TestRunAlreadyCancelledContext(t *testing.T) {
	g, targets := sessionTestInstance(t)
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := session.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled context: err = %v, want context.Canceled", err)
	}
	// The session must stay usable after an aborted run.
	if res, err := session.Run(context.Background()); err != nil || !res.FullProtection() {
		t.Fatalf("session unusable after cancellation: res=%v err=%v", res, err)
	}
}

func TestRunCancelMidSelection(t *testing.T) {
	g, targets := sessionTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	session, err := New(g, targets, WithProgress(func(step int, _ graph.Edge, _ int) {
		steps = step
		cancel() // trip the context from inside the selection loop
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-selection cancel: err = %v, want context.Canceled", err)
	}
	if steps != 1 {
		t.Fatalf("selection ran %d steps after cancellation, want 1", steps)
	}
}

// TestProgressSkipsCriticalBudgetProbe pins that the progress callback
// reports exactly the returned result's steps: the hidden SGB run that
// sizes the critical budget for CT/WT/RD/RDT must not leak.
func TestProgressSkipsCriticalBudgetProbe(t *testing.T) {
	g, targets := sessionTestInstance(t)
	var seen []graph.Edge
	session, err := New(g, targets,
		WithMethod(MethodCT), // budget 0: needs the k* probe first
		WithProgress(func(step int, p graph.Edge, _ int) {
			if step != len(seen)+1 {
				t.Fatalf("step %d out of order (saw %d)", step, len(seen))
			}
			seen = append(seen, p)
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, res.Protectors) {
		t.Fatalf("progress reported %v, result has %v", seen, res.Protectors)
	}
}

// TestSessionIndexReuse drives the same session at different budgets and
// methods and checks (a) results identical to fresh single-use sessions,
// (b) the motif index was built exactly once.
func TestSessionIndexReuse(t *testing.T) {
	g, targets := sessionTestInstance(t)
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		opts []Option
	}{
		{"sgb k=2", []Option{WithBudget(2)}},
		{"sgb k=6", []Option{WithBudget(6)}},
		{"ct critical", []Option{WithMethod(MethodCT)}},
		{"wt dbd k=4", []Option{WithMethod(MethodWT), WithDivision(DivisionDBD), WithBudget(4)}},
		{"rdt k=3", []Option{WithMethod(MethodRDT), WithBudget(3), WithSeed(11)}},
	}
	for _, run := range runs {
		got, err := session.Run(context.Background(), run.opts...)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		fresh, err := New(g, targets, run.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(context.Background())
		if err != nil {
			t.Fatalf("%s (fresh): %v", run.name, err)
		}
		if !reflect.DeepEqual(got.Protectors, want.Protectors) {
			t.Fatalf("%s: reused-index run diverged from fresh session:\nreused %v\nfresh  %v",
				run.name, got.Protectors, want.Protectors)
		}
	}
	if n := session.IndexBuilds(); n != 1 {
		t.Fatalf("index built %d times across %d runs, want 1", n, len(runs))
	}
}

func TestSessionConcurrentRuns(t *testing.T) {
	g, targets := sessionTestInstance(t)
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = session.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res.Protectors, baseline.Protectors) {
			t.Fatalf("concurrent run %d diverged", i)
		}
	}
}

// TestRunWaitingForSlotHonoursContext pins that a Run queued behind a
// long-running one gives up at its own deadline instead of blocking until
// the slot frees.
func TestRunWaitingForSlotHonoursContext(t *testing.T) {
	g, targets := sessionTestInstance(t)
	block := make(chan struct{})
	started := make(chan struct{})
	session, err := New(g, targets, WithProgress(func(step int, _ graph.Edge, _ int) {
		if step == 1 {
			close(started)
			<-block // hold the run slot until the test releases it
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := session.Run(context.Background()); err != nil {
			t.Errorf("blocked run failed: %v", err)
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := session.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Run: err = %v, want context.DeadlineExceeded", err)
	}
	close(block)
	wg.Wait()
}

func TestSessionValidation(t *testing.T) {
	g, targets := sessionTestInstance(t)

	if _, err := New(g, targets, WithBudget(-1)); !errors.Is(err, ErrNegativeBudget) {
		t.Fatalf("negative budget: err = %v, want ErrNegativeBudget", err)
	}
	if _, err := New(g, targets, WithMethod("bogus")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := New(g, targets, WithDivision("bogus")); !errors.Is(err, ErrUnknownDivision) {
		t.Fatalf("unknown division: err = %v, want ErrUnknownDivision", err)
	}
	if _, err := New(g, nil); err == nil {
		t.Fatal("empty target set accepted")
	}
	// A session has one engine; recount runs through the free functions,
	// and the error says so.
	if _, err := New(g, targets, WithEngine(EngineRecount)); !errors.Is(err, ErrUnknownEngine) ||
		!strings.Contains(err.Error(), "free functions") {
		t.Fatalf("recount engine: err = %v, want ErrUnknownEngine naming the free functions", err)
	}
	if _, err := New(g, targets, WithEngine(EngineIndexed)); err != nil {
		t.Fatalf("indexed engine: %v", err)
	}

	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(context.Background(), WithBudget(-2)); !errors.Is(err, ErrNegativeBudget) {
		t.Fatalf("per-run negative budget: err = %v, want ErrNegativeBudget", err)
	}
	if _, err := session.Run(context.Background(), WithPattern(motif.Rectangle)); !errors.Is(err, ErrPatternFixed) {
		t.Fatalf("per-run pattern change: err = %v, want ErrPatternFixed", err)
	}
	if _, err := session.Run(context.Background(), WithEngine(EngineRecount)); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("per-run recount engine: err = %v, want ErrUnknownEngine", err)
	}
	if _, err := session.Run(context.Background(), WithEngine(EngineIndexed)); err != nil {
		t.Fatalf("per-run indexed engine: %v", err)
	}
}

func TestParseMethodAndDivision(t *testing.T) {
	for in, want := range map[string]Method{
		"": MethodSGB, "sgb": MethodSGB, "ct": MethodCT, "wt": MethodWT, "rd": MethodRD, "rdt": MethodRDT,
	} {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMethod("bogus"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("ParseMethod(bogus): err = %v", err)
	}
	for in, want := range map[string]Division{"": DivisionTBD, "tbd": DivisionTBD, "dbd": DivisionDBD} {
		got, err := ParseDivision(in)
		if err != nil || got != want {
			t.Fatalf("ParseDivision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDivision("bogus"); !errors.Is(err, ErrUnknownDivision) {
		t.Fatalf("ParseDivision(bogus): err = %v", err)
	}
	for _, in := range []string{"", "indexed"} {
		got, err := ParseEngine(in)
		if err != nil || got != EngineIndexed {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", in, got, err, EngineIndexed)
		}
	}
	// "lazy" names a retired engine and is no longer a spelling of indexed;
	// a session has no recount engine.
	for _, in := range []string{"celf", "lazy", "recount"} {
		if _, err := ParseEngine(in); !errors.Is(err, ErrUnknownEngine) {
			t.Fatalf("ParseEngine(%q): err = %v, want ErrUnknownEngine", in, err)
		}
	}
}

// TestFreeFunctionCtxVariants checks every context-aware entry point aborts
// with ctx.Err() on a dead context. Protector.Run refuses an already
// cancelled context before selecting, so the greedy loops are reached by
// cancelling from the progress callback after the first committed step:
// the loop's next cancellation check must stop the run there. Sessions
// select through the index; the recount engine's loops are reached through
// the free functions' bodies, in both scopes.
func TestFreeFunctionCtxVariants(t *testing.T) {
	g, targets := sessionTestInstance(t)
	for _, m := range []Method{MethodSGB, MethodCT, MethodWT} {
		pr, err := New(g, targets, WithMethod(m), WithBudget(4))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		steps := 0
		_, err = pr.Run(ctx, WithProgress(func(int, graph.Edge, int) { steps++; cancel() }))
		cancel()
		if !errors.Is(err, context.Canceled) || steps != 1 {
			t.Fatalf("session %s: err = %v after %d steps, want context.Canceled after 1", m, err, steps)
		}
	}
	p, err := NewProblem(g, motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := TBDForProblem(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Engine: EngineRecount, Scope: ScopeAllEdges}, {Engine: EngineRecount, Scope: ScopeTargetSubgraphs}} {
		for _, m := range []Method{MethodSGB, MethodCT, MethodWT} {
			ctx, cancel := context.WithCancel(context.Background())
			steps := 0
			env := runEnv{ctx: ctx, progress: func(int, graph.Edge, int) { steps++; cancel() }}
			switch m {
			case MethodSGB:
				_, err = sgbGreedy(p, 4, opt, env)
			case MethodCT:
				_, err = ctGreedy(p, budgets, opt, env)
			case MethodWT:
				_, err = wtGreedy(p, budgets, opt, env)
			}
			cancel()
			if !errors.Is(err, context.Canceled) || steps != 1 {
				t.Fatalf("recount/%v %s: err = %v after %d steps, want context.Canceled after 1", opt.Scope, m, err, steps)
			}
		}
	}
}

// TestIndexResetRestoresBuildState exercises motif.Index.Reset through a
// deletion run: after Reset the index must answer exactly like a fresh one.
func TestIndexResetRestoresBuildState(t *testing.T) {
	g, targets := sessionTestInstance(t)
	p, err := NewProblem(g, motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := ix.TotalSimilarity()
	wantSims := ix.Similarities()
	wantCands := ix.CandidateEdges()
	for _, e := range wantCands[:min(4, len(wantCands))] {
		ix.DeleteEdge(e)
	}
	if ix.TotalSimilarity() == wantTotal {
		t.Fatal("deletions had no effect; test instance too weak")
	}
	ix.Reset()
	if got := ix.TotalSimilarity(); got != wantTotal {
		t.Fatalf("total after Reset = %d, want %d", got, wantTotal)
	}
	if got := ix.Similarities(); !reflect.DeepEqual(got, wantSims) {
		t.Fatalf("similarities after Reset = %v, want %v", got, wantSims)
	}
	if got := ix.CandidateEdges(); !reflect.DeepEqual(got, wantCands) {
		t.Fatalf("candidates after Reset differ")
	}
	// Reset must clear the deletion marks too: deleting any candidate
	// again breaks instances instead of being refused as a repeat.
	for _, e := range wantCands {
		if ix.DeleteEdge(e) == 0 {
			t.Fatalf("edge %v still marked deleted after Reset", e)
		}
		ix.Reset()
	}
}
