package motif

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// This file pins the enumeration kernels to two references. refAdj is the
// hash-set adjacency the library used before the sorted-slice graph core,
// and refEnumerate spells each motif out as nested set loops with no shared
// code with the production kernel: every pattern's instance multiset must
// agree between the two on random graphs. mergeJoinPentagon is the
// Pentagon kernel before its meet-in-the-middle rewrite, and the
// production kernel must emit its exact sequence.

type refAdj []map[graph.NodeID]struct{}

func refFrom(g *graph.Graph) refAdj {
	adj := make(refAdj, g.NumNodes())
	for i := range adj {
		adj[i] = make(map[graph.NodeID]struct{})
	}
	g.EachEdge(func(e graph.Edge) bool {
		adj[e.U][e.V] = struct{}{}
		adj[e.V][e.U] = struct{}{}
		return true
	})
	return adj
}

func (a refAdj) has(u, v graph.NodeID) bool {
	_, ok := a[u][v]
	return ok
}

// refEnumerate lists every instance of pattern completing (u, v) straight
// from the set definitions in the paper's Fig. 1.
func refEnumerate(a refAdj, pattern Pattern, t graph.Edge) [][]graph.Edge {
	u, v := t.U, t.V
	var out [][]graph.Edge
	emit := func(es ...graph.Edge) { out = append(out, es) }
	switch pattern {
	case Triangle:
		for w := range a[u] {
			if w != v && a.has(w, v) {
				emit(graph.NewEdge(u, w), graph.NewEdge(w, v))
			}
		}
	case Rectangle:
		for x := range a[u] {
			if x == v {
				continue
			}
			for y := range a[x] {
				if y == u || y == v || !a.has(y, v) {
					continue
				}
				emit(graph.NewEdge(u, x), graph.NewEdge(x, y), graph.NewEdge(y, v))
			}
		}
	case RecTri:
		for w := range a[u] {
			if w == v || !a.has(w, v) {
				continue
			}
			for x := range a[u] {
				if x != v && x != w && a.has(x, w) {
					emit(graph.NewEdge(u, w), graph.NewEdge(w, v), graph.NewEdge(u, x), graph.NewEdge(x, w))
				}
			}
			for x := range a[v] {
				if x != u && x != w && a.has(x, w) {
					emit(graph.NewEdge(u, w), graph.NewEdge(w, v), graph.NewEdge(w, x), graph.NewEdge(x, v))
				}
			}
		}
	case Pentagon:
		for x := range a[u] {
			if x == v {
				continue
			}
			for y := range a[x] {
				if y == u || y == v {
					continue
				}
				for z := range a[y] {
					if z == u || z == v || z == x || !a.has(z, v) {
						continue
					}
					emit(graph.NewEdge(u, x), graph.NewEdge(x, y), graph.NewEdge(y, z), graph.NewEdge(z, v))
				}
			}
		}
	default:
		panic("unknown pattern")
	}
	return out
}

// canonInstances renders an instance list as a sorted multiset of
// edge-list strings, so order-insensitive comparison is a DeepEqual.
func canonInstances(insts [][]graph.Edge) []string {
	out := make([]string, len(insts))
	for i, es := range insts {
		cp := append([]graph.Edge(nil), es...)
		graph.SortEdges(cp)
		out[i] = fmt.Sprint(cp)
	}
	sort.Strings(out)
	return out
}

// TestEnumerationSteadyStateZeroAlloc is the regression guard for the
// scratch-reuse refactor: once a worker's Scratch is warm, counting and
// enumerating motif instances must not allocate at all — the recount greedy
// loops pay these kernels per candidate per step.
func TestEnumerationSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 64, 5*64)
	targets := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(2, 3), graph.NewEdge(4, 5)}
	for _, tgt := range targets {
		g.RemoveEdgeE(tgt)
	}
	sink := 0
	visit := func(edges []graph.Edge) { sink += len(edges) }
	for _, pattern := range AllPatterns {
		var sc Scratch
		// Warm the scratch to its high-water mark.
		CountTotalScratch(g, pattern, targets, &sc)
		if allocs := testing.AllocsPerRun(20, func() {
			sink += CountTotalScratch(g, pattern, targets, &sc)
		}); allocs != 0 {
			t.Errorf("%v: CountTotalScratch allocates %v objects/run in steady state", pattern, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for _, tgt := range targets {
				EnumerateTargetScratch(g, pattern, tgt, &sc, visit)
			}
		}); allocs != 0 {
			t.Errorf("%v: EnumerateTargetScratch allocates %v objects/run in steady state", pattern, allocs)
		}
	}
	_ = sink
}

func TestEnumerateMatchesMapReference(t *testing.T) {
	for _, pattern := range AllPatterns {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 28
				g := randomGraph(rng, n, 3*n)
				ref := refFrom(g)
				var sc Scratch
				for trial := 0; trial < 12; trial++ {
					u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					if u == v {
						continue
					}
					tgt := graph.NewEdge(u, v)
					// The production kernels require the phase-1 invariant
					// (target link absent); drop it from both sides.
					removed := g.RemoveEdgeE(tgt)
					if removed {
						delete(ref[tgt.U], tgt.V)
						delete(ref[tgt.V], tgt.U)
					}
					var got [][]graph.Edge
					EnumerateTargetScratch(g, pattern, tgt, &sc, func(edges []graph.Edge) {
						got = append(got, append([]graph.Edge(nil), edges...))
					})
					want := refEnumerate(ref, pattern, tgt)
					gi, wi := canonInstances(got), canonInstances(want)
					if !reflect.DeepEqual(gi, wi) {
						t.Fatalf("seed %d target %v: kernel found %d instances, reference %d:\n got %v\nwant %v",
							seed, tgt, len(gi), len(wi), gi, wi)
					}
					if c := CountTotalScratch(g, pattern, []graph.Edge{tgt}, &sc); c != len(want) {
						t.Fatalf("seed %d target %v: Count = %d, reference %d", seed, tgt, c, len(want))
					}
					if removed {
						g.AddEdgeE(tgt)
						ref[tgt.U][tgt.V] = struct{}{}
						ref[tgt.V][tgt.U] = struct{}{}
					}
				}
			}
		})
	}
}

// mergeJoinPentagon is the Pentagon kernel before the meet-in-the-middle
// rewrite: one Γ(b) ∩ Γ(v) merge-join per 2-path u–a–b. It is the ordered
// reference, because emission order fixes the instance table, the EdgeIDs
// and through them every downstream tie-break.
func mergeJoinPentagon(g *graph.Graph, t graph.Edge) [][4]graph.Edge {
	u, v := t.U, t.V
	var out [][4]graph.Edge
	for _, a := range g.NeighborsView(u) {
		if a == v {
			continue
		}
		for _, b := range g.NeighborsView(a) {
			if b == u || b == v {
				continue
			}
			for _, c := range g.CommonNeighbors(b, v) {
				if c == u || c == a {
					continue
				}
				out = append(out, [4]graph.Edge{
					graph.NewEdge(u, a), graph.NewEdge(a, b), graph.NewEdge(b, c), graph.NewEdge(c, v),
				})
			}
		}
	}
	return out
}

// checkPentagonOrder asserts that the production kernel emits exactly the
// merge-join reference's sequence for tgt, and that CountTotalScratch agrees.
func checkPentagonOrder(t *testing.T, g *graph.Graph, tgt graph.Edge, sc *Scratch) {
	t.Helper()
	want := mergeJoinPentagon(g, tgt)
	var got [][4]graph.Edge
	EnumerateTargetScratch(g, Pentagon, tgt, sc, func(edges []graph.Edge) {
		if len(got) == len(want) {
			// Stop a broken (e.g. cyclic) bucket chain before it eats memory.
			t.Fatalf("target %v: kernel emits more than the reference's %d instances", tgt, len(want))
		}
		got = append(got, [4]graph.Edge(edges))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("target %v on %d nodes: kernel emitted %d instances, reference %d:\n got %v\nwant %v",
			tgt, g.NumNodes(), len(got), len(want), got, want)
	}
	if c := CountTotalScratch(g, Pentagon, []graph.Edge{tgt}, sc); c != len(want) {
		t.Fatalf("target %v: CountTotalScratch = %d, reference %d", tgt, c, len(want))
	}
}

// randomGraph draws a uniform simple graph with n nodes and m edges
// (m must not exceed n(n-1)/2).
func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for g.NumEdges() < m {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestPentagonKernelMatchesMergeJoinOrder(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 28
			g := randomGraph(rng, n, 3*n)
			var sc Scratch
			for trial := 0; trial < 12; trial++ {
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				tgt := graph.NewEdge(u, v)
				// Both the phase-1 form and, for Count callers on a
				// general graph, the form with the target link present.
				present := g.RemoveEdgeE(tgt)
				checkPentagonOrder(t, g, tgt, &sc)
				if present {
					g.AddEdgeE(tgt)
					checkPentagonOrder(t, g, tgt, &sc)
				}
			}
		}
	})
	t.Run("hub", func(t *testing.T) {
		g := datasets.DBLPSim(600, 7).Graph
		targets := datasets.SampleTargets(g, 64, rand.New(rand.NewSource(7)))
		g.RemoveEdges(targets)
		var sc Scratch
		for _, tgt := range targets {
			checkPentagonOrder(t, g, tgt, &sc)
		}
		// The counting form of the kernel must agree on the totals.
		want := 0
		for _, tgt := range targets {
			want += len(mergeJoinPentagon(g, tgt))
		}
		if want == 0 {
			t.Fatal("hub graph has no Pentagon instances: the check is vacuous")
		}
		if got := CountTotalScratch(g, Pentagon, targets, &sc); got != want {
			t.Fatalf("CountTotalScratch = %d, reference %d", got, want)
		}
	})
	t.Run("grow", func(t *testing.T) {
		// One Scratch across graphs of growing node count: every growth of
		// the bucket array must leave no stale chain behind.
		rng := rand.New(rand.NewSource(11))
		var sc Scratch
		for _, n := range []int{12, 24, 48, 96, 200} {
			g := randomGraph(rng, n, 4*n)
			for trial := 0; trial < 8; trial++ {
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				tgt := graph.NewEdge(u, v)
				g.RemoveEdgeE(tgt)
				checkPentagonOrder(t, g, tgt, &sc)
			}
			if len(sc.bucket) < n {
				t.Fatalf("bucket array has %d slots for %d nodes", len(sc.bucket), n)
			}
		}
	})
	t.Run("epochWrap", func(t *testing.T) {
		// Stamps left by an earlier target must not read as live once the
		// epoch counter wraps back to theirs.
		rng := rand.New(rand.NewSource(13))
		g := randomGraph(rng, 40, 200)
		targets := datasets.SampleTargets(g, 2, rng)
		g.RemoveEdges(targets)
		var sc Scratch
		CountTotalScratch(g, Pentagon, targets[:1], &sc) // stamps epoch 1
		sc.epoch = math.MaxUint32
		checkPentagonOrder(t, g, targets[1], &sc) // wraps back to epoch 1
		if sc.epoch != 2 {
			t.Fatalf("epoch after wrap = %d, want 2", sc.epoch)
		}
	})
}
