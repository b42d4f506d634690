package tpp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// fig2Problem reconstructs the worked example of paper Fig. 2 (Triangle
// pattern, 5 targets). Structure (see the test assertions for the exact
// paper numbers it reproduces):
//
//	nodes: a=0 b=1 w=2 x=3 y=4 z=5 q=6 r=7 w2=8
//	targets: t1=(x,w) t2=(a,b) t3=(y,w) t4=(z,w) t5=(r,q)
//	t1 has 1 triangle {x-a, a-w};           a-w = p1
//	t2 has 2 triangles {p1, w-b}, {a-w2, w2-b}; w-b = p2, a-w2 = p4
//	t3 has 1 triangle {y-b, p2}
//	t4 has 2 triangles {z-b, p2}, {z-q, q-w};   q-w = p3
//	t5 has 1 triangle {r-w, p3}
//
// Gains: Δp1 = 2 (t1, t2), Δp2 = 3 (t2, t3, t4), Δp3 = 2 (t4, t5),
// Δp4 = 1 (t2) — exactly the participation counts the paper describes.
func fig2Problem(t *testing.T) (*Problem, map[string]graph.Edge) {
	t.Helper()
	g := graph.New(9)
	edges := map[string]graph.Edge{
		"t1": graph.NewEdge(3, 2),
		"t2": graph.NewEdge(0, 1),
		"t3": graph.NewEdge(4, 2),
		"t4": graph.NewEdge(5, 2),
		"t5": graph.NewEdge(7, 6),
		"p1": graph.NewEdge(0, 2),
		"p2": graph.NewEdge(2, 1),
		"p3": graph.NewEdge(6, 2),
		"p4": graph.NewEdge(0, 8),
		"x1": graph.NewEdge(3, 0),
		"x3": graph.NewEdge(4, 1),
		"x4": graph.NewEdge(5, 1),
		"x5": graph.NewEdge(5, 6),
		"y4": graph.NewEdge(8, 1),
		"rw": graph.NewEdge(7, 2),
	}
	for _, e := range edges {
		g.AddEdgeE(e)
	}
	targets := []graph.Edge{edges["t1"], edges["t2"], edges["t3"], edges["t4"], edges["t5"]}
	p, err := NewProblem(g, motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	return p, edges
}

// fig2Budgets returns the paper's sub-budget assignment: 1 for t1 and t2,
// 0 for the rest, aligned with the problem's canonical target order.
func fig2Budgets(p *Problem, edges map[string]graph.Edge) []int {
	budgets := make([]int, len(p.Targets))
	budgets[p.TargetIndex(edges["t1"])] = 1
	budgets[p.TargetIndex(edges["t2"])] = 1
	return budgets
}

func TestFig2InitialSimilarity(t *testing.T) {
	p, _ := fig2Problem(t)
	// t1:1 + t2:2 + t3:1 + t4:2 + t5:1 = 7 target triangles.
	if got := p.InitialSimilarity(); got != 7 {
		t.Fatalf("s(∅,T) = %d, want 7", got)
	}
}

func TestFig2WorkedExampleSGB(t *testing.T) {
	p, edges := fig2Problem(t)
	for _, eng := range allEngines() {
		res, err := eng.sgb(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Paper Fig. 2(b)-(c): P={p2} gives Δf=3, then P={p2,p3} gives Δf=5.
		if res.Dissimilarity() != 5 {
			t.Fatalf("%v: SGB Δf = %d, want 5", eng, res.Dissimilarity())
		}
		want := []graph.Edge{edges["p2"], edges["p3"]}
		if !reflect.DeepEqual(res.Protectors, want) {
			t.Fatalf("%v: SGB picked %v, want %v", eng, res.Protectors, want)
		}
		if !reflect.DeepEqual(res.SimilarityTrace, []int{7, 4, 2}) {
			t.Fatalf("%v: trace = %v, want [7 4 2]", eng, res.SimilarityTrace)
		}
	}
}

func TestFig2WorkedExampleCT(t *testing.T) {
	p, edges := fig2Problem(t)
	budgets := fig2Budgets(p, edges)
	for _, eng := range allEngines() {
		res, err := eng.ct(p, budgets)
		if err != nil {
			t.Fatal(err)
		}
		// Paper Fig. 2(d)-(e): Δf = 3 then 4.
		if res.Dissimilarity() != 4 {
			t.Fatalf("%v: CT Δf = %d, want 4", eng, res.Dissimilarity())
		}
		if res.Protectors[0] != edges["p2"] {
			t.Fatalf("%v: CT first pick %v, want p2", eng, res.Protectors[0])
		}
	}
}

func TestFig2WorkedExampleWT(t *testing.T) {
	p, edges := fig2Problem(t)
	budgets := fig2Budgets(p, edges)
	for _, eng := range allEngines() {
		res, err := eng.wt(p, budgets)
		if err != nil {
			t.Fatal(err)
		}
		// Paper Fig. 2(f)-(g): Δf = 2 then 3.
		if res.Dissimilarity() != 3 {
			t.Fatalf("%v: WT Δf = %d, want 3", eng, res.Dissimilarity())
		}
		if res.Protectors[0] != edges["p1"] {
			t.Fatalf("%v: WT first pick %v, want p1", eng, res.Protectors[0])
		}
		if len(res.Protectors) != 2 {
			t.Fatalf("%v: WT picked %d protectors, want 2", eng, len(res.Protectors))
		}
	}
}

// Paper's ordering claim: SGB ≥ CT ≥ WT on the Fig. 2 instance.
func TestFig2MethodOrdering(t *testing.T) {
	p, edges := fig2Problem(t)
	budgets := fig2Budgets(p, edges)
	sgb, _ := indexedEngine.sgb(p, 2)
	ct, _ := indexedEngine.ct(p, budgets)
	wt, _ := indexedEngine.wt(p, budgets)
	if !(sgb.Dissimilarity() >= ct.Dissimilarity() && ct.Dissimilarity() >= wt.Dissimilarity()) {
		t.Fatalf("ordering violated: SGB=%d CT=%d WT=%d",
			sgb.Dissimilarity(), ct.Dissimilarity(), wt.Dissimilarity())
	}
}

// engineCase is one way the greedy algorithms run: the recount free
// functions in one of their two scopes, or the motif index a session
// selects through (a fresh motif.NewIndex in the session's scope, as
// Protector.Run builds it). Every case selects identically.
type engineCase struct {
	name    string
	scope   Scope // the free functions' scope; unused when indexed
	indexed bool
}

func (c engineCase) String() string { return c.name }

// indexedEngine is the session's case.
var indexedEngine = engineCase{name: "indexed", indexed: true}

// allEngines are the two recount scopes plus the session's index.
func allEngines() []engineCase {
	return []engineCase{
		{name: "recount/" + ScopeAllEdges.String(), scope: ScopeAllEdges},
		{name: "recount/" + ScopeTargetSubgraphs.String(), scope: ScopeTargetSubgraphs},
		indexedEngine,
	}
}

// indexEnv is a session selection's run environment: a fresh index over
// the problem.
func indexEnv(p *Problem) (runEnv, error) {
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	return runEnv{ix: ix}, err
}

func (c engineCase) sgb(p *Problem, k int) (*Result, error) {
	if !c.indexed {
		return SGBGreedy(p, k, c.scope)
	}
	env, err := indexEnv(p)
	if err != nil {
		return nil, err
	}
	return sgbGreedy(p, k, sessionScope, env)
}

func (c engineCase) ct(p *Problem, budgets []int) (*Result, error) {
	if !c.indexed {
		return CTGreedy(p, budgets, c.scope)
	}
	env, err := indexEnv(p)
	if err != nil {
		return nil, err
	}
	return ctGreedy(p, budgets, sessionScope, env)
}

func (c engineCase) wt(p *Problem, budgets []int) (*Result, error) {
	if !c.indexed {
		return WTGreedy(p, budgets, c.scope)
	}
	env, err := indexEnv(p)
	if err != nil {
		return nil, err
	}
	return wtGreedy(p, budgets, sessionScope, env)
}

// critical is CriticalBudget on this engine.
func (c engineCase) critical(p *Problem) (int, *Result, error) {
	if !c.indexed {
		return CriticalBudget(p, c.scope)
	}
	res, err := c.sgb(p, maxBudget)
	if err != nil {
		return 0, nil, err
	}
	return len(res.Protectors), res, nil
}

func TestNewProblemValidation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	if _, err := NewProblem(nil, motif.Triangle, []graph.Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewProblem(g, motif.Triangle, nil); err == nil {
		t.Fatal("empty target set accepted")
	}
	if _, err := NewProblem(g, motif.Triangle, []graph.Edge{{U: 0, V: 2}}); err == nil {
		t.Fatal("non-edge target accepted")
	}
	if _, err := NewProblem(g, motif.Triangle, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}}); err == nil {
		t.Fatal("duplicate target accepted")
	}
}

// TestNewProblemStoresPhase1 pins the one stored form of an instance:
// NewProblem keeps a phase-1 copy of the caller's graph (every edge but the
// targets), never touches the caller's graph, and original() rebuilds it.
func TestNewProblemStoresPhase1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.BarabasiAlbertTriad(60, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	before := g.Edges()
	p, err := NewProblem(g, motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	if p.G == g {
		t.Fatal("problem retained the caller's graph")
	}
	for _, tgt := range p.Targets {
		if p.G.HasEdgeE(tgt) {
			t.Fatalf("target %v survived phase 1", tgt)
		}
	}
	if p.G.NumEdges() != g.NumEdges()-len(p.Targets) {
		t.Fatalf("phase 1 has %d edges, want %d - %d targets", p.G.NumEdges(), g.NumEdges(), len(p.Targets))
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Fatal("NewProblem mutated the caller's graph")
	}
	if !reflect.DeepEqual(p.original().Edges(), before) {
		t.Fatal("original() does not rebuild the caller's graph")
	}
}

func TestSGBNegativeBudget(t *testing.T) {
	p, _ := fig2Problem(t)
	if _, err := SGBGreedy(p, -1, ScopeAllEdges); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestSGBZeroBudget(t *testing.T) {
	p, _ := fig2Problem(t)
	res, err := indexedEngine.sgb(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) != 0 || res.Dissimilarity() != 0 {
		t.Fatal("zero budget should delete nothing")
	}
}

func TestSGBStopsWhenNoGain(t *testing.T) {
	// Target with no triangles at all: greedy must stop immediately even
	// with budget remaining.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	p, err := NewProblem(g, motif.Triangle, []graph.Edge{graph.NewEdge(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines() {
		res, err := eng.sgb(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Protectors) != 0 {
			t.Fatalf("%v: picked %v for an already-safe target", eng, res.Protectors)
		}
	}
}

func TestCriticalBudgetFullProtection(t *testing.T) {
	p, _ := fig2Problem(t)
	for _, eng := range allEngines() {
		kstar, res, err := eng.critical(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FullProtection() {
			t.Fatalf("%v: critical budget run left similarity %d", eng, res.FinalSimilarity())
		}
		if kstar != len(res.Protectors) {
			t.Fatalf("%v: k* = %d but %d protectors", eng, kstar, len(res.Protectors))
		}
		// Sanity: k* can't exceed the number of instances (deleting one edge
		// per instance always suffices).
		if kstar > 7 {
			t.Fatalf("%v: k* = %d too large", eng, kstar)
		}
	}
}

func TestValidateBudgets(t *testing.T) {
	p, _ := fig2Problem(t)
	if _, err := CTGreedy(p, []int{1, 2}, ScopeAllEdges); err == nil {
		t.Fatal("budget length mismatch accepted")
	}
	bad := make([]int, len(p.Targets))
	bad[0] = -1
	if _, err := WTGreedy(p, bad, ScopeAllEdges); err == nil {
		t.Fatal("negative sub budget accepted")
	}
}

// Every engine case (both recount scopes and the index) must make
// identical selections — they implement the same mathematical greedy with
// identical tie-breaking.
func TestPropertyEngineEquivalence(t *testing.T) {
	for _, pattern := range motif.Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(25, 3, 0.5, rng)
			targets := datasets.SampleTargets(g, 4, rng)
			p, err := NewProblem(g, pattern, targets)
			if err != nil {
				return false
			}
			var base *Result
			for _, eng := range allEngines() {
				res, err := eng.sgb(p, 4)
				if err != nil {
					return false
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(res.Protectors, base.Protectors) {
					return false
				}
				if !reflect.DeepEqual(res.SimilarityTrace, base.SimilarityTrace) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

// CT and WT must also agree across every engine case.
func TestPropertyEngineEquivalenceCTWT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(25, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		p, err := NewProblem(g, motif.Triangle, targets)
		if err != nil {
			return false
		}
		budgets, err := TBDForProblem(p, 5)
		if err != nil {
			return false
		}
		var ctBase, wtBase *Result
		for _, eng := range allEngines() {
			ct, err := eng.ct(p, budgets)
			if err != nil {
				return false
			}
			wt, err := eng.wt(p, budgets)
			if err != nil {
				return false
			}
			if ctBase == nil {
				ctBase, wtBase = ct, wt
				continue
			}
			if !reflect.DeepEqual(ct.Protectors, ctBase.Protectors) ||
				!reflect.DeepEqual(wt.Protectors, wtBase.Protectors) {
				return false
			}
			if !reflect.DeepEqual(ct.SimilarityTrace, ctBase.SimilarityTrace) ||
				!reflect.DeepEqual(wt.SimilarityTrace, wtBase.SimilarityTrace) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 1 (monotonicity): for random nested protector sets A ⊆ B,
// s(A,T) ≥ s(B,T), i.e. f(A,T) ≤ f(B,T).
func TestPropertyMonotonicity(t *testing.T) {
	for _, pattern := range motif.Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(20, 3, 0.5, rng)
			targets := datasets.SampleTargets(g, 3, rng)
			p, err := NewProblem(g, pattern, targets)
			if err != nil {
				return false
			}
			g1 := p.G
			edges := g1.Edges()
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			nA := rng.Intn(4)
			nB := nA + rng.Intn(4)
			if nB > len(edges) {
				nB = len(edges)
			}
			if nA > nB {
				nA = nB
			}
			simAfter := func(del []graph.Edge) int {
				w := g1.Clone()
				w.RemoveEdges(del)
				total, _ := motif.CountAll(w, pattern, targets)
				return total
			}
			return simAfter(edges[:nA]) >= simAfter(edges[:nB])
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

// Lemma 2 (submodularity): for random A ⊆ B and p ∉ B,
// Δf(A) = s(A) − s(A∪{p}) ≥ s(B) − s(B∪{p}) = Δf(B).
func TestPropertySubmodularity(t *testing.T) {
	for _, pattern := range motif.Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(20, 3, 0.5, rng)
			targets := datasets.SampleTargets(g, 3, rng)
			p, err := NewProblem(g, pattern, targets)
			if err != nil {
				return false
			}
			g1 := p.G
			edges := g1.Edges()
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			if len(edges) < 3 {
				return true
			}
			nA := rng.Intn(3)
			extra := rng.Intn(3)
			nB := nA + extra
			if nB >= len(edges) {
				nB = len(edges) - 1
			}
			if nA > nB {
				nA = nB
			}
			pEdge := edges[len(edges)-1] // not in A or B
			simAfter := func(del []graph.Edge) int {
				w := g1.Clone()
				w.RemoveEdges(del)
				total, _ := motif.CountAll(w, pattern, targets)
				return total
			}
			A := edges[:nA]
			B := edges[:nB]
			deltaA := simAfter(A) - simAfter(append(append([]graph.Edge(nil), A...), pEdge))
			deltaB := simAfter(B) - simAfter(append(append([]graph.Edge(nil), B...), pEdge))
			return deltaA >= deltaB
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}

// Theorem 3: SGB-Greedy achieves at least (1 − 1/e) of the brute-force
// optimum on instances small enough to enumerate.
func TestPropertyGreedyApproximationBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(14, 2, 0.6, rng)
		targets := datasets.SampleTargets(g, 2, rng)
		p, err := NewProblem(g, motif.Triangle, targets)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		opt, optBroken, err := OptimalSGB(p, k)
		if err != nil {
			return true // candidate set too large for brute force: skip
		}
		_ = opt
		res, err := indexedEngine.sgb(p, k)
		if err != nil {
			return false
		}
		if optBroken == 0 {
			return res.Dissimilarity() == 0
		}
		ratio := float64(res.Dissimilarity()) / float64(optBroken)
		return ratio >= 1-1/2.718281828459045
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Greedy never wastes budget: every recorded deletion strictly decreases
// total similarity.
func TestPropertyGreedyStrictProgress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(25, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		p, err := NewProblem(g, motif.RecTri, targets)
		if err != nil {
			return false
		}
		res, err := indexedEngine.sgb(p, 6)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.SimilarityTrace); i++ {
			if res.SimilarityTrace[i] >= res.SimilarityTrace[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTBDRespectsCaps(t *testing.T) {
	budgets, err := TBD(10, []int{5, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 1, 0, 2} // total capacity 8 < k: everything capped
	if !reflect.DeepEqual(budgets, want) {
		t.Fatalf("TBD = %v, want %v", budgets, want)
	}
}

func TestTBDProportional(t *testing.T) {
	budgets, err := TBD(6, []int{30, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	if budgets[0] != 3 || budgets[1] != 2 || budgets[2] != 1 {
		t.Fatalf("TBD = %v, want [3 2 1]", budgets)
	}
}

func TestTBDNegativeCount(t *testing.T) {
	if _, err := TBD(5, []int{1, -1}); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestDBDProportionalToDegreeProduct(t *testing.T) {
	// Star + pendant: target (0,1) has product 4·1, target (0,2) has 4·1...
	// build something asymmetric instead.
	g := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	targets := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(4, 5)}
	// products: d0·d1 = 4·2 = 8, d4·d5 = 2·1 = 2 → 8:2 split of k=5 → 4,1.
	budgets, err := DBD(5, g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(budgets, []int{4, 1}) {
		t.Fatalf("DBD = %v, want [4 1]", budgets)
	}
}

func TestDBDTargetNotEdge(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	if _, err := DBD(2, g, []graph.Edge{graph.NewEdge(0, 2)}); err == nil {
		t.Fatal("non-edge target accepted by DBD")
	}
}

// TestDBDForProblemUsesOriginalDegrees pins DBDForProblem, which reads the
// degrees off the phase-1 graph, to DBD on the original graph. Every
// instance has a hub shared by at least two targets, so a degree that
// forgot the withheld target links would skew the hub's products against
// the others' and move the apportionment.
func TestDBDForProblemUsesOriginalDegrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(40, 3, 0.5, rng)
		hub := graph.NodeID(rng.Intn(g.NumNodes()))
		for g.Degree(hub) < 3 {
			hub = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		nbrs := g.Neighbors(hub)
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		targets := []graph.Edge{graph.NewEdge(hub, nbrs[0]), graph.NewEdge(hub, nbrs[1])}
		for _, e := range datasets.SampleTargets(g, 4, rng) {
			if !e.Has(hub) {
				targets = append(targets, e)
			}
		}
		p, err := NewProblem(g, motif.Triangle, targets)
		if err != nil {
			t.Log(err)
			return false
		}
		for k := 0; k <= 40; k++ {
			got, err := DBDForProblem(p, k)
			if err != nil {
				t.Log(err)
				return false
			}
			want, err := DBD(k, g, p.Targets)
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, k=%d: DBDForProblem = %v, DBD on the original graph = %v", seed, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: both budget divisions always satisfy Σ k_t ≤ k, and TBD
// additionally k_t ≤ |W_t|.
func TestPropertyBudgetDivisionFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(25, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 5, rng)
		p, err := NewProblem(g, motif.Triangle, targets)
		if err != nil {
			return false
		}
		k := rng.Intn(20)
		tbd, err := TBDForProblem(p, k)
		if err != nil {
			return false
		}
		dbd, err := DBDForProblem(p, k)
		if err != nil {
			return false
		}
		_, per := motif.CountAll(p.G, motif.Triangle, p.Targets)
		sumT, sumD := 0, 0
		for i := range targets {
			if tbd[i] > per[i] || tbd[i] < 0 || dbd[i] < 0 {
				return false
			}
			sumT += tbd[i]
			sumD += dbd[i]
		}
		return sumT <= k && sumD <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesRespectBudget(t *testing.T) {
	p, _ := fig2Problem(t)
	rng := rand.New(rand.NewSource(9))
	rd, err := RandomDeletion(p, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Protectors) != 3 {
		t.Fatalf("RD deleted %d, want 3", len(rd.Protectors))
	}
	rdt, err := RandomDeletionFromTargets(p, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rdt.Protectors) != 3 {
		t.Fatalf("RDT deleted %d, want 3", len(rdt.Protectors))
	}
	// RDT draws only from target-subgraph edges.
	ix, _ := motif.NewIndex(p.G, p.Pattern, p.Targets)
	universe := make(map[graph.Edge]bool)
	for _, e := range ix.AllTouchedEdges() {
		universe[e] = true
	}
	for _, e := range rdt.Protectors {
		if !universe[e] {
			t.Fatalf("RDT deleted %v outside the target-subgraph universe", e)
		}
	}
}

// On average over samplings, greedy beats RDT beats RD at equal budget —
// the qualitative ordering of paper Fig. 3 (Rectangle/RecTri panels).
func TestMethodOrderingOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sgbSum, rdtSum, rdSum float64
	const rounds = 8
	for r := 0; r < rounds; r++ {
		g := gen.BarabasiAlbertTriad(120, 4, 0.5, rng)
		targets := datasets.SampleTargets(g, 6, rng)
		p, err := NewProblem(g, motif.Rectangle, targets)
		if err != nil {
			t.Fatal(err)
		}
		k := 10
		sgb, err := indexedEngine.sgb(p, k)
		if err != nil {
			t.Fatal(err)
		}
		rdt, err := RandomDeletionFromTargets(p, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := RandomDeletion(p, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		sgbSum += float64(sgb.SimilarityAt(k))
		rdtSum += float64(rdt.SimilarityAt(k))
		rdSum += float64(rd.SimilarityAt(k))
	}
	if !(sgbSum <= rdtSum && rdtSum <= rdSum) {
		t.Fatalf("expected SGB ≤ RDT ≤ RD similarity, got %.1f / %.1f / %.1f",
			sgbSum/rounds, rdtSum/rounds, rdSum/rounds)
	}
}

func TestOptimalSGBTooManyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gen.BarabasiAlbertTriad(200, 5, 0.6, rng)
	targets := datasets.SampleTargets(g, 20, rng)
	p, err := NewProblem(g, motif.Rectangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OptimalSGB(p, 3); err == nil {
		t.Fatal("expected refusal on large candidate sets")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{SimilarityTrace: []int{10, 6, 3}}
	if r.FinalSimilarity() != 3 || r.Dissimilarity() != 7 || r.FullProtection() {
		t.Fatal("result helpers wrong")
	}
	if r.SimilarityAt(0) != 10 || r.SimilarityAt(1) != 6 || r.SimilarityAt(99) != 3 || r.SimilarityAt(-1) != 10 {
		t.Fatal("SimilarityAt clamping wrong")
	}
}
