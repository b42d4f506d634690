package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// applyDelta takes d through a session's apply path on a bare phase-1
// graph and its index: Canonicalize, Validate, ApplyToGraph, then the
// index's ApplyMutation (tpp.Protector.Apply runs the same four steps and
// adds the target-list and warm-start bookkeeping).
func applyDelta(g *graph.Graph, ix *motif.Index, d Delta) error {
	d, err := d.Canonicalize()
	if err != nil {
		return err
	}
	if err := d.Validate(g, ix.Targets()); err != nil {
		return err
	}
	remap := d.ApplyToGraph(g)
	_, err = ix.ApplyMutation(g, motif.Mutation{
		Inserted:    d.Insert,
		Removed:     d.Remove,
		AddTargets:  d.AddTargets,
		DropTargets: d.DropTargets,
		Remap:       remap,
	})
	return err
}

// checkIndexParity asserts that got (an incrementally maintained index) is
// observationally identical to a from-scratch index on the same graph:
// per-target similarities, edge-keyed gains over both universes, per-target
// gain splits, and the full greedy selection sequence (argmax + delete until
// exhaustion — the drain exercises heap order, hence tie-breaking, hence
// the bit-identical-selections guarantee). got is restored with Reset.
func checkIndexParity(t *testing.T, got, want *motif.Index) {
	t.Helper()
	if g, w := got.TotalSimilarity(), want.TotalSimilarity(); g != w {
		t.Fatalf("total similarity: got %d, want %d", g, w)
	}
	gs, ws := got.Similarities(), want.Similarities()
	for ti := range ws {
		if gs[ti] != ws[ti] {
			t.Fatalf("similarity of target %d: got %d, want %d", ti, gs[ti], ws[ti])
		}
	}
	if g, w := got.NumInstances(), want.NumInstances(); g != w {
		t.Fatalf("instances: got %d, want %d", g, w)
	}
	// Gains must agree as edge-keyed quantities over the union of the two
	// universes (an edge absent from one has gain 0 there).
	gotEdges, wantEdges := got.AllTouchedEdges(), want.AllTouchedEdges()
	if len(gotEdges) != len(wantEdges) {
		t.Fatalf("universe size: got %d, want %d", len(gotEdges), len(wantEdges))
	}
	gbuf, wbuf := make([]int, len(ws)), make([]int, len(ws))
	for i, e := range wantEdges {
		if gotEdges[i] != e {
			t.Fatalf("universe edge %d: got %v, want %v", i, gotEdges[i], e)
		}
		if g, w := got.Gain(e), want.Gain(e); g != w {
			t.Fatalf("gain(%v): got %d, want %d", e, g, w)
		}
		gv, gt := got.GainVectorIDInto(got.Interner().ID(e), gbuf)
		wv, wt := want.GainVectorIDInto(want.Interner().ID(e), wbuf)
		if gt != wt || !slices.Equal(gv, wv) {
			t.Fatalf("per-target gains of %v: got %v (total %d), want %v (total %d)", e, gv, gt, wv, wt)
		}
	}
	// Greedy drain: the argmax sequences must match step for step.
	steps := 0
	for {
		ge, gg, gok := got.ArgmaxGain()
		we, wg, wok := want.ArgmaxGain()
		if gok != wok || ge != we || gg != wg {
			t.Fatalf("drain step %d: got (%v,%d,%v), want (%v,%d,%v)", steps, ge, gg, gok, we, wg, wok)
		}
		if !gok {
			break
		}
		if gb, wb := got.DeleteEdge(ge), want.DeleteEdge(we); gb != wb {
			t.Fatalf("drain step %d: broke %d instances, want %d", steps, gb, wb)
		}
		steps++
	}
	got.Reset()
	want.Reset()
}

// TestApplyParityRandomStreams is the subsystem's central property test:
// after every Apply of a random delta batch, the incrementally maintained
// index must be indistinguishable from a from-scratch NewIndex on the
// mutated graph — across every motif pattern reachable through the API
// (Triangle, Rectangle, the combined RecTri, and the Pentagon extension)
// and across enumeration worker counts.
func TestApplyParityRandomStreams(t *testing.T) {
	for _, pattern := range motif.AllPatterns {
		for _, workers := range []int{1, 3} {
			pattern, workers := pattern, workers
			t.Run(fmt.Sprintf("%s/workers=%d", pattern, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(41*int64(pattern) + int64(workers)))
				n := 140
				if pattern == motif.Pentagon {
					n = 80 // pentagon enumeration is the heaviest kernel
				}
				g := gen.BarabasiAlbertTriad(n, 3, 0.4, rng)
				targets := datasets.SampleTargets(g, 8, rng)

				phase1 := g.Clone()
				phase1.RemoveEdges(targets)
				churn := gen.NewChurn(phase1, targets, 0.5, rng)

				ix, err := motif.NewIndexWorkers(churn.Graph(), pattern, targets, workers)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 25; step++ {
					ins, rem := churn.Next(1 + rng.Intn(7))
					st, err := ix.ApplyMutation(churn.Graph(), motif.Mutation{Inserted: ins, Removed: rem})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if st.Inserted != len(ins) || st.Removed != len(rem) {
						t.Fatalf("step %d: stats (%d,%d), want (%d,%d)", step, st.Inserted, st.Removed, len(ins), len(rem))
					}
					fresh, err := motif.NewIndexWorkers(churn.Graph(), pattern, targets, workers)
					if err != nil {
						t.Fatalf("step %d: fresh: %v", step, err)
					}
					checkIndexParity(t, ix, fresh)
				}
			})
		}
	}
}

// TestApplyParityEdgeBatchShapes pins the edge-only batch shapes that
// need no re-enumeration: removal-only batches, removals of edges outside
// the interned universe, and insertions that touch no target. Each must
// leave the index indistinguishable from a fresh build on the mutated
// graph — including the compacted edge universe — and the last two must
// report that they killed, re-enumerated and touched nothing. Runs across
// all patterns, with protector deletions burnt in before every batch so
// the discard-deletions contract is exercised on each shape.
func TestApplyParityEdgeBatchShapes(t *testing.T) {
	for _, pattern := range motif.AllPatterns {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(17 * int64(pattern+1)))
			g := gen.BarabasiAlbertTriad(120, 3, 0.4, rng)
			targets := datasets.SampleTargets(g, 6, rng)
			g.RemoveEdges(targets)

			ix, err := motif.NewIndex(g, pattern, targets)
			if err != nil {
				t.Fatal(err)
			}
			var applied [3]int // non-empty batches per shape
			for step := 0; step < 18; step++ {
				for i := 0; i < step%4; i++ {
					if e, _, ok := ix.ArgmaxGain(); ok {
						ix.DeleteEdge(e)
					}
				}
				shape, k := step%3, 1+rng.Intn(5)
				var m motif.Mutation
				switch shape {
				case 0: // any removals
					edges := g.Edges()
					rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
					m.Removed = edges[:k]
				case 1: // removals outside the interned universe
					universe := make(map[graph.Edge]bool)
					for _, e := range ix.AllTouchedEdges() {
						universe[e] = true
					}
					for _, e := range g.Edges() {
						if !universe[e] && len(m.Removed) < k {
							m.Removed = append(m.Removed, e)
						}
					}
				case 2: // insertions that touch no target
					m.Inserted = untouchingInsertions(g, pattern, targets, k, rng)
				}
				g.RemoveEdges(m.Removed)
				if len(m.Removed)+len(m.Inserted) > 0 {
					applied[shape]++
				}
				st, err := ix.ApplyMutation(g, m)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if st.TouchedTargets != 0 {
					t.Fatalf("step %d: edge batch %+v re-enumerated %d targets", step, m, st.TouchedTargets)
				}
				if shape > 0 && (st.KilledInstances != 0 || len(st.TouchedEdges) != 0) {
					t.Fatalf("step %d: batch %+v killed %d instances and touched %v, want none",
						step, m, st.KilledInstances, st.TouchedEdges)
				}
				fresh, err := motif.NewIndex(g, pattern, targets)
				if err != nil {
					t.Fatalf("step %d: fresh: %v", step, err)
				}
				checkIndexParity(t, ix, fresh)
			}
			for shape, n := range applied {
				if n == 0 {
					t.Fatalf("shape %d never produced a non-empty batch", shape)
				}
			}
		})
	}
}

// untouchingInsertions inserts into g up to k random absent non-target
// edges through which no instance of pattern can form for any target, and
// returns them. An edge incident to a target endpoint always counts as
// touching, so later insertions cannot make an earlier one touch.
func untouchingInsertions(g *graph.Graph, pattern motif.Pattern, targets []graph.Edge, k int, rng *rand.Rand) []graph.Edge {
	var out []graph.Edge
	n := g.NumNodes()
	for tries := 0; tries < 50*k && len(out) < k; tries++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if g.HasEdgeE(e) || slices.Contains(targets, e) {
			continue
		}
		g.AddEdgeE(e)
		touches := false
		for _, t := range targets {
			touches = touches || mayTouch(g, pattern, t, e)
		}
		if touches {
			g.RemoveEdgeE(e)
			continue
		}
		out = append(out, e)
	}
	return out
}

// mayTouch reports whether an instance of pattern for target t = (u, v)
// can contain the edge e = (x, y) of g, from where each pattern's edges
// sit relative to the target: every triangle edge is incident to u or v;
// a rectangle's middle edge joins a neighbour of u to a neighbour of v; a
// RecTri edge away from u and v leaves a common neighbour of both; and
// every pentagon edge has an endpoint adjacent to u or v. It may flag an
// edge no instance contains, never the reverse.
func mayTouch(g *graph.Graph, pattern motif.Pattern, t, e graph.Edge) bool {
	u, v, x, y := t.U, t.V, e.U, e.V
	if e.Has(u) || e.Has(v) {
		return true
	}
	switch pattern {
	case motif.Triangle:
		return false
	case motif.Rectangle:
		return (g.HasEdge(x, u) && g.HasEdge(y, v)) || (g.HasEdge(y, u) && g.HasEdge(x, v))
	case motif.RecTri:
		return (g.HasEdge(x, u) && g.HasEdge(x, v)) || (g.HasEdge(y, u) && g.HasEdge(y, v))
	case motif.Pentagon:
		return g.HasEdge(x, u) || g.HasEdge(x, v) || g.HasEdge(y, u) || g.HasEdge(y, v)
	}
	panic("invalid pattern")
}

// TestApplyParityMidSelection pins down that ApplyMutation discards recorded
// protector deletions, exactly like a fresh build: applying a delta to an
// index that is mid-selection yields the fully-alive state of the mutated
// graph.
func TestApplyParityMidSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.BarabasiAlbertTriad(100, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	phase1 := g.Clone()
	phase1.RemoveEdges(targets)
	churn := gen.NewChurn(phase1, targets, 0.5, rng)

	ix, err := motif.NewIndex(churn.Graph(), motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a few greedy deletions, then apply a delta on top.
	for i := 0; i < 3; i++ {
		if e, _, ok := ix.ArgmaxGain(); ok {
			ix.DeleteEdge(e)
		}
	}
	ins, rem := churn.Next(6)
	if _, err := ix.ApplyMutation(churn.Graph(), motif.Mutation{Inserted: ins, Removed: rem}); err != nil {
		t.Fatal(err)
	}
	fresh, err := motif.NewIndex(churn.Graph(), motif.Triangle, targets)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexParity(t, ix, fresh)
}

// TestApplyParityMutationStreams extends the central property to the full
// session-mutation surface: random batches of edge churn, node arrivals and
// departures, and target add/drop (gen.NewMutationChurn) — after every
// Apply the incrementally maintained index must be indistinguishable from a
// from-scratch NewIndex on the mutated graph and mutated target list,
// across every pattern and across enumeration worker counts. It also pins
// the churn generator's private mirror in lockstep with dynamic's own
// application (targets, node count, edge count).
func TestApplyParityMutationStreams(t *testing.T) {
	for _, pattern := range motif.AllPatterns {
		for _, workers := range []int{1, 3} {
			pattern, workers := pattern, workers
			t.Run(fmt.Sprintf("%s/workers=%d", pattern, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(97*int64(pattern) + int64(workers)))
				n := 140
				if pattern == motif.Pentagon {
					n = 80 // pentagon enumeration is the heaviest kernel
				}
				g := gen.BarabasiAlbertTriad(n, 3, 0.4, rng)
				targets := datasets.SampleTargets(g, 8, rng)
				churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)

				phase1 := g.Clone()
				phase1.RemoveEdges(targets)
				ix, err := motif.NewIndexWorkers(phase1, pattern, targets, workers)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 20; step++ {
					d := Delta(churn.Next(1 + rng.Intn(8)))
					if err := applyDelta(phase1, ix, d); err != nil {
						t.Fatalf("step %d: apply %+v: %v", step, d, err)
					}
					curTargets := ix.Targets()
					// Lockstep: the generator applied the same batch to its
					// own mirror; any divergence would invalidate later
					// batches, so catch it at the step that caused it.
					churnTargets := churn.Targets()
					if len(curTargets) != len(churnTargets) {
						t.Fatalf("step %d: index has %d targets, churn mirror %d", step, len(curTargets), len(churnTargets))
					}
					for i := range curTargets {
						if curTargets[i] != churnTargets[i] {
							t.Fatalf("step %d: target %d = %v, churn mirror has %v", step, i, curTargets[i], churnTargets[i])
						}
					}
					if phase1.NumNodes() != churn.Graph().NumNodes() {
						t.Fatalf("step %d: phase1 has %d nodes, churn mirror %d", step, phase1.NumNodes(), churn.Graph().NumNodes())
					}
					if phase1.NumEdges() != churn.Graph().NumEdges()-len(churnTargets) {
						t.Fatalf("step %d: phase1 has %d edges, churn mirror implies %d",
							step, phase1.NumEdges(), churn.Graph().NumEdges()-len(churnTargets))
					}
					fresh, err := motif.NewIndexWorkers(phase1, pattern, curTargets, workers)
					if err != nil {
						t.Fatalf("step %d: fresh: %v", step, err)
					}
					checkIndexParity(t, ix, fresh)
				}
			})
		}
	}
}

// FuzzApplyParity drives the parity property from raw bytes: the first
// byte picks the pattern and worker count, then each byte pair encodes one
// mutation attempt — edge churn, batch boundaries, node arrivals and
// departures, target add/drop, and mid-selection protector burns — on a
// small scale-free graph. After every batch the incremental index must
// equal a fresh rebuild on the current graph and current target list.
func FuzzApplyParity(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab})
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	f.Add([]byte{0x02, 0x11, 0x11, 0x33, 0x33, 0x05, 0x05, 0x22, 0x44})
	// A protector burn (5,5), then a batch that kills, enumerates and
	// touches nothing: removals of edges outside the interned universe
	// (Pentagon, Rectangle), and insertions that touch no target
	// (Pentagon, Rectangle on two workers).
	f.Add([]byte{0x03, 5, 5, 9, 11, 11, 13})
	f.Add([]byte{0x01, 5, 5, 0, 22, 1, 5})
	f.Add([]byte{0x03, 5, 5, 11, 14, 11, 17})
	f.Add([]byte{0x11, 5, 5, 1, 11, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pattern := motif.AllPatterns[int(data[0])%len(motif.AllPatterns)]
		workers := 1 + int(data[0]/16)%3
		rng := rand.New(rand.NewSource(3))
		g := gen.BarabasiAlbertTriad(48, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		phase1 := g.Clone()
		phase1.RemoveEdges(targets)

		ix, err := motif.NewIndexWorkers(phase1, pattern, targets, workers)
		if err != nil {
			t.Fatal(err)
		}
		var d Delta
		seen := make(map[graph.Edge]struct{})
		isTarget := func(e graph.Edge) bool {
			for _, tt := range ix.Targets() {
				if tt == e {
					return true
				}
			}
			return false
		}
		targetEndpoint := func(x graph.NodeID) bool {
			for _, tt := range ix.Targets() {
				if tt.Has(x) {
					return true
				}
			}
			return false
		}
		flush := func() {
			// A new batch may touch any edge again (including reverting a
			// mutation from the previous batch), so the per-batch dedup
			// resets with the delta.
			clear(seen)
			if d.Empty() {
				return
			}
			if err := applyDelta(phase1, ix, d); err != nil {
				t.Fatalf("apply %+v: %v", d, err)
			}
			fresh, err := motif.NewIndexWorkers(phase1, pattern, ix.Targets(), workers)
			if err != nil {
				t.Fatal(err)
			}
			checkIndexParity(t, ix, fresh)
			d = Delta{}
		}
		for i := 1; i+1 < len(data); i += 2 {
			n := graph.NodeID(phase1.NumNodes())
			u, v := graph.NodeID(data[i])%n, graph.NodeID(data[i+1])%n
			if u == v {
				// Degenerate pairs encode the non-edge operations.
				switch data[i+1] % 6 {
				case 0, 1:
					flush() // batch boundary
				case 2:
					d.AddNodes++
				case 3:
					// Node departure: flush, then retire u with all its
					// edges in one dedicated batch.
					flush()
					if targetEndpoint(u) {
						continue
					}
					dep := Delta{RemoveNodes: []graph.NodeID{u}}
					for _, w := range phase1.Neighbors(u) {
						dep.Remove = append(dep.Remove, graph.NewEdge(u, w))
					}
					d = dep
					flush()
				case 4:
					// Target churn: drop the target indexed by u when more
					// than one remains, else add the first admissible pair
					// scanning from u.
					cur := ix.Targets()
					if len(cur)+len(d.AddTargets)-len(d.DropTargets) > 1 && len(d.DropTargets) == 0 {
						d.DropTargets = append(d.DropTargets, cur[int(u)%len(cur)])
						break
					}
					for off := graph.NodeID(1); off < 20 && off < n; off++ {
						w := (u + off) % n
						if w == u {
							continue
						}
						e := graph.NewEdge(u, w)
						if _, ok := seen[e]; ok {
							continue
						}
						if isTarget(e) || phase1.HasEdgeE(e) {
							continue
						}
						seen[e] = struct{}{}
						d.AddTargets = append(d.AddTargets, e)
						break
					}
				case 5:
					// Mid-selection burn: the next Apply must discard these.
					if e, _, ok := ix.ArgmaxGain(); ok {
						ix.DeleteEdge(e)
					}
				}
				continue
			}
			e := graph.NewEdge(u, v)
			if isTarget(e) {
				continue
			}
			if _, ok := seen[e]; ok {
				continue // one mutation per edge per batch
			}
			seen[e] = struct{}{}
			if phase1.HasEdgeE(e) {
				d.Remove = append(d.Remove, e)
			} else {
				d.Insert = append(d.Insert, e)
			}
			if d.Size() >= 5 {
				flush()
			}
		}
		flush()
	})
}
