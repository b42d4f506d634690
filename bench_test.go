// Package repro's top-level benchmarks regenerate every evaluation
// artefact of the TPP paper (one benchmark per figure and table) and
// measure ablations of its design choices.
//
// The figure/table benchmarks run the experiment protocol at CI scale
// (QuickConfig); `go run ./cmd/tppbench -full` regenerates them at paper
// scale. The ablation benchmarks isolate individual design choices: Lemma 5
// candidate restriction, inverted index vs naive recount (the README's
// "Engine × scope × workers" knobs), and TBD vs DBD budget division.
package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/metrics"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig(io.Discard)
	cfg.Repetitions = 2
	cfg.ArenasScale = 250
	cfg.DBLPScale = 600
	cfg.ArenasTargets = 8
	cfg.DBLPTargets = 10
	cfg.TimeBudget = 5
	cfg.QualityPoints = 5
	return cfg
}

// --- Figure and table regenerators -----------------------------------------

func BenchmarkFig3SimilarityEvolutionArenas(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SimilarityEvolutionDBLP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5RunningTimeArenas(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6RunningTimeDBLP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3UtilityLossArenas20(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4UtilityLossArenas50(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5UtilityLossDBLP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// benchProblem builds a mid-size TPP instance shared by the ablations.
func benchProblem(b *testing.B, pattern motif.Pattern) *tpp.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := datasets.DBLPSim(800, 1).Graph
	targets := datasets.SampleTargets(g, 12, rng)
	p, err := tpp.NewProblem(g, pattern, targets)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// Ablation 1: Lemma 5 candidate restriction under the recount cost model —
// the paper's ~20x claim (Fig. 5).
func BenchmarkAblationRestriction(b *testing.B) {
	p := benchProblem(b, motif.Triangle)
	for _, tc := range []struct {
		name string
		opt  tpp.Options
	}{
		{"all-edges", tpp.Options{Engine: tpp.EngineRecount, Scope: tpp.ScopeAllEdges}},
		{"restricted", tpp.Options{Engine: tpp.EngineRecount, Scope: tpp.ScopeTargetSubgraphs}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tpp.SGBGreedy(p, 4, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 2: inverted-index gains vs naive recount at equal candidate
// scope.
func BenchmarkAblationIndexVsRecount(b *testing.B) {
	p := benchProblem(b, motif.Triangle)
	for _, tc := range []struct {
		name string
		opt  tpp.Options
	}{
		{"recount", tpp.Options{Engine: tpp.EngineRecount, Scope: tpp.ScopeTargetSubgraphs}},
		{"indexed", tpp.Options{Engine: tpp.EngineIndexed, Scope: tpp.ScopeTargetSubgraphs}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tpp.SGBGreedy(p, 4, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 3: TBD vs DBD budget division under CT-Greedy — quality claim
// (TBD wins) measured as final similarity, reported via custom metric.
func BenchmarkAblationBudgetDivision(b *testing.B) {
	p := benchProblem(b, motif.Rectangle)
	k := 10
	for _, tc := range []struct {
		name   string
		divide func(*tpp.Problem, int) ([]int, error)
	}{
		{"TBD", tpp.TBDForProblem},
		{"DBD", tpp.DBDForProblem},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var finalSim float64
			for i := 0; i < b.N; i++ {
				budgets, err := tc.divide(p, k)
				if err != nil {
					b.Fatal(err)
				}
				res, err := tpp.CTGreedy(p, budgets, tpp.Options{Engine: tpp.EngineIndexed})
				if err != nil {
					b.Fatal(err)
				}
				finalSim = float64(res.FinalSimilarity())
			}
			b.ReportMetric(finalSim, "final-similarity")
		})
	}
}

// --- Extension experiments ---------------------------------------------------

func BenchmarkExt1StructuralComparison(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Ext1StructuralComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt2KatzDefense(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Ext2KatzDefense(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedSGBGreedy(b *testing.B) {
	p := benchProblem(b, motif.Rectangle)
	weights := make([]float64, len(p.Targets))
	for i := range weights {
		weights[i] = float64(i%3) + 0.5
	}
	for i := 0; i < b.N; i++ {
		if _, err := tpp.WeightedSGBGreedy(p, 8, weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKatzGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := datasets.DBLPSim(300, 6).Graph
	targets := datasets.SampleTargets(g, 4, rng)
	p, err := tpp.NewProblem(g, motif.Triangle, targets)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := tpp.KatzGreedy(p, 3, tpp.DefaultKatzOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt3PentagonPanel(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Ext3PentagonPanel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt4DPComparison(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Ext4DPComparison(2.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardInsertionStream(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := datasets.DBLPSim(400, 10).Graph
	targets := datasets.SampleTargets(g, 4, rng)
	p, err := tpp.NewProblem(g, motif.Triangle, targets)
	if err != nil {
		b.Fatal(err)
	}
	guard, err := tpp.NewGuard(p)
	if err != nil {
		b.Fatal(err)
	}
	n := guard.Graph().NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if _, _, err := guard.AddEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopPredictions(b *testing.B) {
	g := datasets.DBLPSim(800, 11).Graph
	for i := 0; i < b.N; i++ {
		if got := linkpred.TopPredictions(g, linkpred.ResourceAllocation, 100); len(got) == 0 {
			b.Fatal("no predictions")
		}
	}
}

func BenchmarkAnonymizeMechanisms(b *testing.B) {
	g := datasets.DBLPSim(1000, 7).Graph
	for _, m := range anonymize.Mechanisms {
		b.Run(m.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				if _, err := anonymize.Apply(m, g, 50, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLinkPredIndices(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := datasets.DBLPSim(1000, 8).Graph
	targets := datasets.SampleTargets(g, 50, rng)
	for _, kind := range linkpred.TriangleIndices {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, t := range targets {
					linkpred.Score(g, kind, t.U, t.V)
				}
			}
		})
	}
}

func BenchmarkUtilityMetrics(b *testing.B) {
	g := datasets.DBLPSim(600, 9).Graph
	for _, kind := range metrics.AllMetrics {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metrics.Compute(g, []metrics.MetricKind{kind}, rand.New(rand.NewSource(9)))
			}
		})
	}
}

// edgeIDProblem builds the fixed instance the EdgeID refactor benchmarks
// run on; BENCH_edgeid.json commits their before/after numbers.
func edgeIDProblem(b *testing.B, scale int) (*graph.Graph, []graph.Edge) {
	b.Helper()
	rng := rand.New(rand.NewSource(12))
	g := datasets.DBLPSim(scale, 12).Graph
	targets := datasets.SampleTargets(g, 16, rng)
	work := g.Clone()
	for _, t := range targets {
		work.RemoveEdgeE(t)
	}
	return work, targets
}

// BenchmarkEdgeIDSelectionSteps measures the index-backed greedy inner loop
// in isolation: reset the index, then run 25 argmax+delete selection steps.
// This is the path the EdgeID refactor moves from per-step sorting to heap
// maintenance.
func BenchmarkEdgeIDSelectionSteps(b *testing.B) {
	work, targets := edgeIDProblem(b, 1500)
	ix, err := motif.NewIndex(work, motif.Rectangle, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reset()
		for k := 0; k < 25; k++ {
			best, _, ok := ix.ArgmaxGain()
			if !ok {
				break
			}
			ix.DeleteEdge(best)
		}
	}
}

// BenchmarkEdgeIDArgmaxGain measures one argmax query on a fresh index.
func BenchmarkEdgeIDArgmaxGain(b *testing.B) {
	work, targets := edgeIDProblem(b, 1500)
	ix, err := motif.NewIndex(work, motif.Rectangle, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ix.ArgmaxGain(); !ok {
			b.Fatal("no candidates")
		}
	}
}

// TestArgmaxGainStepSubLinear is the regression guard for the EdgeID
// refactor: a greedy selection step must not scan or sort the candidate
// set. It asserts (a) ArgmaxGain is allocation-free and (b) its cost grows
// sub-linearly in the candidate count — the pre-refactor implementation
// rebuilt and sorted the full candidate slice per step, which fails both.
func TestArgmaxGainStepSubLinear(t *testing.T) {
	build := func(nTargets int) *motif.Index {
		rng := rand.New(rand.NewSource(12))
		g := datasets.DBLPSim(2500, 12).Graph
		targets := datasets.SampleTargets(g, nTargets, rng)
		work := g.Clone()
		for _, tgt := range targets {
			work.RemoveEdgeE(tgt)
		}
		ix, err := motif.NewIndex(work, motif.Rectangle, targets)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	small, big := build(8), build(64)

	if allocs := testing.AllocsPerRun(100, func() { small.ArgmaxGain() }); allocs != 0 {
		t.Fatalf("ArgmaxGain allocates %v objects/call; the heap-backed argmax must be allocation-free", allocs)
	}

	factor := float64(len(big.CandidateEdges())) / float64(len(small.CandidateEdges()))
	if factor < 2 {
		t.Skipf("candidate universe grew only %.1fx; instance too weak to discriminate", factor)
	}
	measure := func(ix *motif.Index) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := ix.ArgmaxGain(); !ok {
					b.Fatal("no candidates")
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	nsSmall, nsBig := measure(small), measure(big)
	// Sub-linear: growing the candidate set by `factor` may cost at most
	// half of `factor` in step time (the O(1) heap peek stays flat; the old
	// O(E log E) sort scaled super-linearly).
	if nsBig > nsSmall*factor/2 {
		t.Fatalf("selection step cost scales with candidates: %.1fns -> %.1fns over a %.1fx universe",
			nsSmall, nsBig, factor)
	}
}

// BenchmarkEdgeIDGreedyEndToEnd measures a whole SGB selection (index build
// plus selection) through the public tpp entry point.
func BenchmarkEdgeIDGreedyEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := datasets.DBLPSim(1500, 12).Graph
	targets := datasets.SampleTargets(g, 16, rng)
	p, err := tpp.NewProblem(g, motif.Rectangle, targets)
	if err != nil {
		b.Fatal(err)
	}
	opt := tpp.Options{Engine: tpp.EngineIndexed, Scope: tpp.ScopeTargetSubgraphs}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tpp.SGBGreedy(p, 25, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Graph-core benchmarks (sorted-slice refactor) ---------------------------
//
// These pin the cost of the layers the sorted-slice graph core touches:
// motif index construction (enumeration-dominated), link-prediction scoring
// (common-neighbor-dominated), naive recount enumeration, and raw graph
// mutation. BENCH_graphcore.json records their before/after numbers.

// graphCoreFixture builds the DBLPSim(4000) phase-1 instance the graph-core
// benchmarks run on.
func graphCoreFixture(b *testing.B, scale, nTargets int) (*graph.Graph, []graph.Edge) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	g := datasets.DBLPSim(scale, 13).Graph
	targets := datasets.SampleTargets(g, nTargets, rng)
	work := g.Clone()
	work.RemoveEdges(targets)
	return work, targets
}

// BenchmarkGraphCoreIndexBuild measures a full motif index build — the
// dominant cost of a protection request — with a single enumeration worker,
// so the number isolates the kernel cost rather than scheduling.
//
// PublishPentagon is shaped like one perfbench `publish` session (DBLPSim
// at 2000 nodes, 512 Pentagon targets): there interning the W edges is
// about as costly as enumerating the instances.
func BenchmarkGraphCoreIndexBuild(b *testing.B) {
	work, targets := graphCoreFixture(b, 4000, 64)
	build := func(name string, g *graph.Graph, pattern motif.Pattern, targets []graph.Edge) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := motif.NewIndexWorkers(g, pattern, targets, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, pattern := range motif.AllPatterns {
		build(pattern.String(), work, pattern, targets)
	}
	pubWork, pubTargets := graphCoreFixture(b, 2000, 512)
	build("PublishPentagon", pubWork, motif.Pentagon, pubTargets)
}

// BenchmarkGraphCoreEnumerate measures the naive recount path (CountAll) the
// plain greedy variants pay per candidate per step.
func BenchmarkGraphCoreEnumerate(b *testing.B) {
	work, targets := graphCoreFixture(b, 4000, 64)
	for _, pattern := range motif.AllPatterns {
		b.Run(pattern.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if total, _ := motif.CountAll(work, pattern, targets); total < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkGraphCoreLinkPred measures the adversary-side scoring scans:
// per-pair index scores over the sampled targets and the full ranked
// prediction sweep.
func BenchmarkGraphCoreLinkPred(b *testing.B) {
	work, targets := graphCoreFixture(b, 4000, 64)
	for _, kind := range []linkpred.IndexKind{
		linkpred.CommonNeighbors, linkpred.Jaccard, linkpred.AdamicAdar, linkpred.ResourceAllocation,
	} {
		b.Run("Score/"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range targets {
					linkpred.Score(work, kind, t.U, t.V)
				}
			}
		})
	}
	b.Run("TopPredictions", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := linkpred.TopPredictions(work, linkpred.ResourceAllocation, 100); len(got) == 0 {
				b.Fatal("no predictions")
			}
		}
	})
}

// BenchmarkGraphCoreMutation measures raw edge churn on the mutable core:
// remove and re-add existing edges (the dynamic subsystem's write path).
func BenchmarkGraphCoreMutation(b *testing.B) {
	work, _ := graphCoreFixture(b, 4000, 64)
	edges := work.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if !work.RemoveEdgeE(e) || !work.AddEdgeE(e) {
			b.Fatal("edge churn failed")
		}
	}
}

func BenchmarkGraphPrimitives(b *testing.B) {
	g := datasets.ArenasEmailSim(5).Graph
	edges := g.Edges()
	b.Run("HasEdge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			if !g.HasEdgeE(e) {
				b.Fatal("edge vanished")
			}
		}
	})
	b.Run("CommonNeighborCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			if g.CommonNeighborCount(e.U, e.V) < 0 {
				b.Fatal("impossible")
			}
		}
	})
	b.Run("BFS", func(b *testing.B) {
		dist := make([]int32, g.NumNodes())
		queue := make([]graph.NodeID, 0, g.NumNodes())
		for i := 0; i < b.N; i++ {
			g.BFSDistancesInto(graph.NodeID(i%g.NumNodes()), dist, queue)
		}
	})
}
