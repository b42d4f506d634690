package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Dynamic-graph ablation: maintaining the motif index under a batch of edge
// mutations incrementally (motif.Index.ApplyMutation — kill incident
// instances via the CSR table, re-enumerate only insert-touched targets)
// versus what a delta-unaware session must do — re-derive the phase-1
// working graph (the clone tpp.NewProblem takes) and re-enumerate every
// target from scratch.
// BENCH_dynamic.json records the measured gap.

type dynamicBench struct {
	pattern motif.Pattern
	targets []graph.Edge
	churn   *gen.Churn
	deltaK  int
}

// newDynamicBench builds the evolving fixture: a DBLP stand-in, sampled
// targets, a churn stream over the phase-1 graph, and a warm index.
func newDynamicBench(b *testing.B, pattern motif.Pattern, scale, nTargets, deltaK int) (*dynamicBench, *motif.Index) {
	b.Helper()
	ds := datasets.DBLPSim(scale, 12)
	rng := rand.New(rand.NewSource(99))
	targets := datasets.SampleTargets(ds.Graph, nTargets, rng)
	phase1 := ds.Graph.Clone()
	phase1.RemoveEdges(targets)
	churn := gen.NewChurn(phase1, targets, 0.5, rng)
	ix, err := motif.NewIndex(churn.Graph(), pattern, targets)
	if err != nil {
		b.Fatal(err)
	}
	return &dynamicBench{pattern: pattern, targets: targets, churn: churn, deltaK: deltaK}, ix
}

func dynamicBenchCases() []struct {
	name    string
	pattern motif.Pattern
	scale   int
	targets int
	deltaK  int
} {
	return []struct {
		name    string
		pattern motif.Pattern
		scale   int
		targets int
		deltaK  int
	}{
		{"Triangle", motif.Triangle, 4000, 64, 16},
		{"Rectangle", motif.Rectangle, 4000, 64, 16},
	}
}

// BenchmarkDynamicApplyIncremental measures maintaining the index under one
// delta batch (~0.13% of edges) with ApplyMutation: graph mutation is done by
// the churn stream, the index absorbs the batch incrementally.
func BenchmarkDynamicApplyIncremental(b *testing.B) {
	for _, c := range dynamicBenchCases() {
		b.Run(fmt.Sprintf("%s/scale=%d/delta=%d", c.name, c.scale, c.deltaK), func(b *testing.B) {
			fx, ix := newDynamicBench(b, c.pattern, c.scale, c.targets, c.deltaK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ins, rem := fx.churn.Next(fx.deltaK)
				b.StartTimer()
				if _, err := ix.ApplyMutation(fx.churn.Graph(), motif.Mutation{Inserted: ins, Removed: rem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicApplyPureRemoval measures the removal-only regime: a
// delta with no insertions never creates instances, so ApplyMutation's one
// path re-enumerates no target, builds no union adjacency, and only kills
// removal-incident instances before rewiring. The churn stream is built
// with pInsert = 0 so every batch is removals.
func BenchmarkDynamicApplyPureRemoval(b *testing.B) {
	for _, c := range dynamicBenchCases() {
		b.Run(fmt.Sprintf("%s/scale=%d/delta=%d", c.name, c.scale, c.deltaK), func(b *testing.B) {
			ds := datasets.DBLPSim(c.scale, 12)
			rng := rand.New(rand.NewSource(99))
			targets := datasets.SampleTargets(ds.Graph, c.targets, rng)
			phase1 := ds.Graph.Clone()
			phase1.RemoveEdges(targets)
			churn := gen.NewChurn(phase1, targets, 0, rng) // removals only
			ix, err := motif.NewIndex(churn.Graph(), c.pattern, targets)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ins, rem := churn.Next(c.deltaK)
				if len(ins) != 0 {
					// The removal pool drained; restart the stream on a
					// fresh clone so every timed apply stays removal-only.
					churn = gen.NewChurn(phase1, targets, 0, rng)
					if ix, err = motif.NewIndex(churn.Graph(), c.pattern, targets); err != nil {
						b.Fatal(err)
					}
					ins, rem = churn.Next(c.deltaK)
					if len(ins) != 0 {
						b.Fatal("pure-removal stream produced insertions")
					}
				}
				b.StartTimer()
				if _, err := ix.ApplyMutation(churn.Graph(), motif.Mutation{Inserted: ins, Removed: rem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicFullRebuild measures the delta-unaware baseline on the
// same churn stream: re-derive the phase-1 working graph (clone) and
// re-enumerate every target with motif.NewIndex.
func BenchmarkDynamicFullRebuild(b *testing.B) {
	for _, c := range dynamicBenchCases() {
		b.Run(fmt.Sprintf("%s/scale=%d/delta=%d", c.name, c.scale, c.deltaK), func(b *testing.B) {
			fx, _ := newDynamicBench(b, c.pattern, c.scale, c.targets, c.deltaK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fx.churn.Next(fx.deltaK)
				b.StartTimer()
				working := fx.churn.Graph().Clone()
				if _, err := motif.NewIndex(working, fx.pattern, fx.targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Session-mutation ablation (delta schema v2): absorbing full session
// deltas — node arrivals/departures, target add/drop, mixed with edge
// churn — through tpp.Protector.Apply on a warm session, versus what a
// delta-unaware design must do: build fresh session state on the mutated
// graph and target list (clone + phase-1 derivation + full motif.NewIndex
// enumeration). BENCH_sessionmut.json records the measured gap.

// dblp4000 is the DBLPSim(4000, seed 12) graph the session-mutation and
// steady-state benchmarks start from, generated once per process rather
// than once per b.N round (or fixture rebuild). Its users only read it:
// tpp.New and gen.NewMutationChurn work on copies.
var dblp4000 = sync.OnceValue(func() *graph.Graph { return datasets.DBLPSim(4000, 12).Graph })

// sessionMutationStream is one sub-benchmark's fixture: 64 targets
// sampled from DBLPSim(4000) and the mutation stream over them, in batches
// of k. Every b.N round restarts a session from the seed state and applies
// the stream's first b.N batches, so each batch is drawn once, by the
// first round that reaches it, and before that round's timer starts. The
// stream keeps its own mirror of the graph and never reads a session.
type sessionMutationStream struct {
	pattern motif.Pattern
	targets []graph.Edge
	churn   *gen.MutationChurn
	k       int
	deltas  []dynamic.Delta
}

func newSessionMutationStream(pattern motif.Pattern, rates gen.ChurnRates, k int) *sessionMutationStream {
	rng := rand.New(rand.NewSource(99))
	targets := datasets.SampleTargets(dblp4000(), 64, rng)
	return &sessionMutationStream{
		pattern: pattern,
		targets: targets,
		churn:   gen.NewMutationChurn(dblp4000(), targets, rates, rng),
		k:       k,
	}
}

// first returns the stream's first n batches.
func (s *sessionMutationStream) first(n int) []dynamic.Delta {
	for len(s.deltas) < n {
		s.deltas = append(s.deltas, dynamic.Delta(s.churn.Next(s.k)))
	}
	return s.deltas[:n]
}

// benchSessionApply drives Apply over the stream on a warm session built
// from the seed state.
func benchSessionApply(b *testing.B, stream *sessionMutationStream) {
	ctx := context.Background()
	session, err := tpp.New(dblp4000(), stream.targets, tpp.WithPattern(stream.pattern))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil { // warm the index
		b.Fatal(err)
	}
	deltas := stream.first(b.N)
	b.ResetTimer()
	for _, d := range deltas {
		if _, err := session.Apply(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicApplyNodeChurn measures absorbing pure node churn:
// arrivals (isolated joins) and departures (the node's edges leave with
// it), which exercise the swap-with-last remap through the whole stack —
// graph compaction, target renaming, index universe re-spelling.
func BenchmarkDynamicApplyNodeChurn(b *testing.B) {
	rates := gen.ChurnRates{NodeArrive: 0.5, NodeDepart: 0.5}
	for _, pattern := range []motif.Pattern{motif.Triangle, motif.Rectangle} {
		stream := newSessionMutationStream(pattern, rates, 8)
		b.Run(fmt.Sprintf("%s/scale=4000/delta=8", pattern), func(b *testing.B) {
			benchSessionApply(b, stream)
		})
	}
}

// BenchmarkDynamicApplyTargetChurn measures absorbing pure target churn: a
// dropped target's instances die through the CSR table, an added target
// enumerates only itself — never the other 63.
func BenchmarkDynamicApplyTargetChurn(b *testing.B) {
	rates := gen.ChurnRates{TargetAdd: 0.5, TargetDrop: 0.5}
	for _, pattern := range []motif.Pattern{motif.Triangle, motif.Rectangle} {
		stream := newSessionMutationStream(pattern, rates, 8)
		b.Run(fmt.Sprintf("%s/scale=4000/delta=8", pattern), func(b *testing.B) {
			benchSessionApply(b, stream)
		})
	}
}

// BenchmarkSessionMutationApply measures the headline mixed workload:
// deltas spanning edge churn, node churn and target churn (a k-event batch
// expands to more raw mutations — each departure takes its remaining
// incident edges with it), absorbed by a warm session.
func BenchmarkSessionMutationApply(b *testing.B) {
	for _, pattern := range []motif.Pattern{motif.Triangle, motif.Rectangle} {
		for _, deltaK := range []int{8, 16} {
			stream := newSessionMutationStream(pattern, gen.DefaultChurnRates(), deltaK)
			b.Run(fmt.Sprintf("%s/scale=4000/delta=%d", pattern, deltaK), func(b *testing.B) {
				benchSessionApply(b, stream)
			})
		}
	}
}

// BenchmarkSessionMutationRebuild measures the delta-unaware baseline on
// the same mixed stream: construct a fresh session for the mutated graph
// and target list (tpp.New validation and its phase-1 graph clone) and the
// full index enumeration its first Run pays.
func BenchmarkSessionMutationRebuild(b *testing.B) {
	for _, pattern := range []motif.Pattern{motif.Triangle, motif.Rectangle} {
		for _, deltaK := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/scale=4000/delta=%d", pattern, deltaK), func(b *testing.B) {
				rng := rand.New(rand.NewSource(99))
				targets := datasets.SampleTargets(dblp4000(), 64, rng)
				churn := gen.NewMutationChurn(dblp4000(), targets, gen.DefaultChurnRates(), rng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The timed build reads the stream's graph after each
					// batch, so the batches cannot be drawn ahead.
					b.StopTimer()
					churn.Next(deltaK)
					b.StartTimer()
					fresh, err := tpp.New(churn.Graph(), churn.Targets(), tpp.WithPattern(pattern))
					if err != nil {
						b.Fatal(err)
					}
					p := fresh.Problem()
					if _, err := motif.NewIndex(p.G, pattern, p.Targets); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
