package tpp

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// The golden corpus pins absolute answers. Every other selection check in
// the repo is relative (indexed against recount, warm against cold, a
// session against the free functions), so a change to a kernel both sides
// share — graph core, enumeration order, interning, target order, the
// (gain desc, id asc) tie-break — moves both sides and passes them all.
// The corpus does not move with the code: it changes only when regenerated
// with
//
//	go test ./internal/tpp -run TestGoldenSelections -update
//
// and a change that regenerates it must say which answers moved and why.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

const goldenPath = "testdata/golden/selections.json"

// goldenRun is one recorded selection: the protectors in selection order,
// the similarity trace and the final similarity.
type goldenRun struct {
	Protectors [][2]graph.NodeID `json:"protectors"`
	Trace      []int             `json:"trace"`
	Final      int               `json:"final"`
}

// goldenCase is one grid point: a single run, or for a churn sequence the
// first run followed by one run after each batch.
type goldenCase struct {
	Name string      `json:"name"`
	Runs []goldenRun `json:"runs"`
}

func goldenRunOf(res *Result) goldenRun {
	r := goldenRun{Trace: res.SimilarityTrace, Final: res.FinalSimilarity()}
	r.Protectors = make([][2]graph.NodeID, len(res.Protectors))
	for i, e := range res.Protectors {
		r.Protectors[i] = [2]graph.NodeID{e.U, e.V}
	}
	return r
}

// goldenInstance is a small seeded graph with its target links.
type goldenInstance struct {
	name  string
	build func() (*graph.Graph, []graph.Edge)
}

var goldenInstances = []goldenInstance{
	{"dblp-sim-64", func() (*graph.Graph, []graph.Edge) {
		g := datasets.DBLPSim(64, 11).Graph
		return g, datasets.SampleTargets(g, 5, rand.New(rand.NewSource(12)))
	}},
	{"ba-triad-56", func() (*graph.Graph, []graph.Edge) {
		rng := rand.New(rand.NewSource(21))
		g := gen.BarabasiAlbertTriad(56, 3, 0.5, rng)
		return g, datasets.SampleTargets(g, 5, rng)
	}},
	{"watts-strogatz-40", func() (*graph.Graph, []graph.Edge) {
		rng := rand.New(rand.NewSource(31))
		g := gen.WattsStrogatz(40, 6, 0.15, rng)
		return g, datasets.SampleTargets(g, 4, rng)
	}},
}

// goldenSpec is one selection request of the static grid.
type goldenSpec struct {
	method   Method
	division Division
	budget   int // 0: the critical budget k*
}

const goldenSeed = 7 // seeds the RD baseline

func goldenSpecs() []goldenSpec {
	var out []goldenSpec
	for _, k := range []int{3, 0} {
		out = append(out,
			goldenSpec{MethodSGB, "", k},
			goldenSpec{MethodCT, DivisionTBD, k},
			goldenSpec{MethodCT, DivisionDBD, k},
			goldenSpec{MethodWT, DivisionTBD, k},
			goldenSpec{MethodWT, DivisionDBD, k},
			goldenSpec{MethodRD, "", k},
		)
	}
	return out
}

func (sp goldenSpec) String() string {
	m := string(sp.method)
	if sp.division != "" {
		m += "-" + string(sp.division)
	}
	if sp.budget == 0 {
		return m + "/k*"
	}
	return fmt.Sprintf("%s/k=%d", m, sp.budget)
}

func (sp goldenSpec) options(pattern motif.Pattern) []Option {
	return []Option{WithPattern(pattern), WithMethod(sp.method), WithDivision(sp.division),
		WithBudget(sp.budget), WithSeed(goldenSeed)}
}

// freeRun answers sp through the recount free functions in scope: the
// paper's algorithms with no session, no index and no warm start.
func (sp goldenSpec) freeRun(p *Problem, scope Scope) (*Result, error) {
	k := sp.budget
	if k == 0 {
		kStar, res, err := CriticalBudget(p, scope)
		if err != nil || sp.method == MethodSGB {
			return res, err
		}
		k = kStar
	}
	switch sp.method {
	case MethodSGB:
		return SGBGreedy(p, k, scope)
	case MethodRD:
		return RandomDeletion(p, k, rand.New(rand.NewSource(goldenSeed)))
	}
	var budgets []int
	var err error
	if sp.division == DivisionTBD {
		budgets, err = TBDForProblem(p, k)
	} else {
		budgets, err = DBDForProblem(p, k)
	}
	if err != nil {
		return nil, err
	}
	if sp.method == MethodCT {
		return CTGreedy(p, budgets, scope)
	}
	return WTGreedy(p, budgets, scope)
}

// goldenChurn is a session that takes a protect after each of its
// gen.MutationChurn batches, which exercises warm replay.
type goldenChurn struct {
	name     string
	instance int // index into goldenInstances
	pattern  motif.Pattern
	spec     goldenSpec
	budgets  []int // per-run budget override, cycled; nil keeps spec.budget
	batches  int
	size     int // mutations per batch
	seed     int64
}

var goldenChurns = []goldenChurn{
	{name: "churn/dblp-sim-64/Triangle/sgb", instance: 0, pattern: motif.Triangle,
		spec: goldenSpec{MethodSGB, "", 0}, budgets: []int{0, 3, 0, 5, 0}, batches: 8, size: 3, seed: 41},
	{name: "churn/ba-triad-56/Rectangle/ct-tbd", instance: 1, pattern: motif.Rectangle,
		spec: goldenSpec{MethodCT, DivisionTBD, 0}, batches: 6, size: 2, seed: 42},
	{name: "churn/watts-strogatz-40/Pentagon/sgb", instance: 2, pattern: motif.Pentagon,
		spec: goldenSpec{MethodSGB, "", 0}, batches: 6, size: 1, seed: 43},
}

func (c goldenChurn) run(t *testing.T) (goldenCase, *Protector) {
	t.Helper()
	ctx := context.Background()
	g, targets := goldenInstances[c.instance].build()
	session, err := New(g, targets, c.spec.options(c.pattern)...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rand.New(rand.NewSource(c.seed)))
	gc := goldenCase{Name: c.name}
	for step := 0; step <= c.batches; step++ {
		if step > 0 {
			if _, err := session.Apply(ctx, dynamic.Delta(churn.Next(c.size))); err != nil {
				t.Fatalf("%s batch %d: apply: %v", c.name, step, err)
			}
		}
		var opts []Option
		if c.budgets != nil {
			opts = append(opts, WithBudget(c.budgets[step%len(c.budgets)]))
		}
		res, err := session.Run(ctx, opts...)
		if err != nil {
			t.Fatalf("%s batch %d: run: %v", c.name, step, err)
		}
		gc.Runs = append(gc.Runs, goldenRunOf(res))
	}
	return gc, session
}

// computeGolden recomputes the corpus through sessions (New/Apply/Run). It
// also answers every static case through the free functions under the
// recount engine in both scopes, and fails on any disagreement with the
// session.
func computeGolden(t *testing.T) []goldenCase {
	t.Helper()
	ctx := context.Background()
	var out []goldenCase
	for _, inst := range goldenInstances {
		for _, pattern := range motif.AllPatterns {
			for _, sp := range goldenSpecs() {
				name := fmt.Sprintf("%s/%s/%s", inst.name, pattern, sp)
				g, targets := inst.build()
				session, err := New(g, targets, sp.options(pattern)...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := session.Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				run := goldenRunOf(res)
				out = append(out, goldenCase{Name: name, Runs: []goldenRun{run}})
				p, err := NewProblem(g, pattern, targets)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, scope := range recountScopes {
					free, err := sp.freeRun(p, scope)
					if err != nil {
						t.Fatalf("%s recount/%v: %v", name, scope, err)
					}
					assertGoldenRun(t, fmt.Sprintf("%s: recount/%v free function against the session", name, scope),
						goldenRunOf(free), run)
				}
			}
		}
	}
	warm := 0
	for _, c := range goldenChurns {
		gc, session := c.run(t)
		out = append(out, gc)
		warm += session.WarmRuns()
	}
	if warm == 0 {
		t.Fatal("no churn sequence served a warm replay: the corpus does not cover warm start")
	}
	return out
}

func assertGoldenRun(t *testing.T, tag string, got, want goldenRun) {
	t.Helper()
	if len(got.Protectors) != len(want.Protectors) {
		t.Fatalf("%s: %d protectors %v, want %d %v", tag, len(got.Protectors), got.Protectors, len(want.Protectors), want.Protectors)
	}
	for i := range want.Protectors {
		if got.Protectors[i] != want.Protectors[i] {
			t.Fatalf("%s: protector %d = %v, want %v", tag, i, got.Protectors[i], want.Protectors[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace %v, want %v", tag, got.Trace, want.Trace)
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace %v, want %v", tag, got.Trace, want.Trace)
		}
	}
	if got.Final != want.Final {
		t.Fatalf("%s: final similarity %d, want %d", tag, got.Final, want.Final)
	}
}

// encodeGolden writes one case per line, so a diff of the corpus names the
// cases that moved.
func encodeGolden(cases []goldenCase) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, c := range cases {
		line, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(cases)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// TestGoldenSelections recomputes every case of the committed corpus and
// compares it exactly: through sessions for every case, and through the
// recount free functions in both scopes for every case without churn.
func TestGoldenSelections(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := encodeGolden(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases (%d bytes) to %s", len(got), len(data), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("computed %d cases, corpus holds %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %q, corpus has %q", i, g.Name, w.Name)
		}
		if len(g.Runs) != len(w.Runs) {
			t.Fatalf("%s: %d runs, corpus has %d", w.Name, len(g.Runs), len(w.Runs))
		}
		for j := range w.Runs {
			assertGoldenRun(t, fmt.Sprintf("%s run %d", w.Name, j), g.Runs[j], w.Runs[j])
		}
	}
}
