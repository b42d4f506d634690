// Package repro's top-level benchmarks time the library's layers one at a
// time: the Katz defence, link prediction, anonymisation and utility
// metrics, the EdgeID selection loop and the graph core. A BENCH_*.json
// record cites the benchmarks its claims rest on. The paper's figures and
// tables are regenerated by cmd/tppbench (`go run ./cmd/tppbench -exp
// all`; add -full for paper scale).
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/metrics"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// --- Extension defences and attack-side layers ----------------------------

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
