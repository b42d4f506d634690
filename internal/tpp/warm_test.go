package tpp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// assertSameSelection requires two results to be bit-identical in everything
// but timings and the WarmStart observability flag.
func assertSameSelection(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Method != want.Method {
		t.Fatalf("%s: method %q, want %q", tag, got.Method, want.Method)
	}
	if len(got.Protectors) != len(want.Protectors) {
		t.Fatalf("%s: %d protectors, want %d", tag, len(got.Protectors), len(want.Protectors))
	}
	for i := range want.Protectors {
		if got.Protectors[i] != want.Protectors[i] {
			t.Fatalf("%s: protector %d = %v, want %v", tag, i, got.Protectors[i], want.Protectors[i])
		}
	}
	if len(got.SimilarityTrace) != len(want.SimilarityTrace) {
		t.Fatalf("%s: trace length %d, want %d", tag, len(got.SimilarityTrace), len(want.SimilarityTrace))
	}
	for i := range want.SimilarityTrace {
		if got.SimilarityTrace[i] != want.SimilarityTrace[i] {
			t.Fatalf("%s: trace[%d] = %d, want %d", tag, i, got.SimilarityTrace[i], want.SimilarityTrace[i])
		}
	}
	if len(got.PerTargetFinal) != len(want.PerTargetFinal) {
		t.Fatalf("%s: per-target length %d, want %d", tag, len(got.PerTargetFinal), len(want.PerTargetFinal))
	}
	for i := range want.PerTargetFinal {
		if got.PerTargetFinal[i] != want.PerTargetFinal[i] {
			t.Fatalf("%s: perTarget[%d] = %d, want %d", tag, i, got.PerTargetFinal[i], want.PerTargetFinal[i])
		}
	}
}

// TestWarmSelectionParityMatrix drives an evolving session through a full
// mutation stream across patterns × worker counts and requires
// every warm-started selection to equal a cold run by a fresh session on the
// same mutated state — the tentpole's correctness bar. It also requires the
// warm engine to actually engage: a matrix cell that silently fell back on
// every delta would vacuously pass.
func TestWarmSelectionParityMatrix(t *testing.T) {
	for _, pattern := range motif.AllPatterns {
		for _, workers := range []int{1, 3} {
			pattern, workers := pattern, workers
			t.Run(fmt.Sprintf("%s/%s/workers=%d", pattern, EngineIndexed, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(7*int64(pattern+1) + int64(workers)))
				g := gen.BarabasiAlbertTriad(160, 3, 0.4, rng)
				targets := datasets.SampleTargets(g, 8, rng)
				ctx := context.Background()

				session, err := New(g, targets, WithPattern(pattern), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				first, err := session.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if first.WarmStart {
					t.Fatal("first run claims warm start")
				}
				// A Pentagon instance is a 5-cycle, so one mutation touches
				// far more candidate edges than under the smaller patterns:
				// 4-mutation deltas push the touched set past the
				// warmTouchedDenom threshold on nearly every step, and the
				// cell would never exercise a warm replay. Single-mutation
				// deltas keep it engaged.
				deltaSize := 4
				if pattern == motif.Pentagon {
					deltaSize = 1
				}
				churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)
				for step := 0; step < 8; step++ {
					d := dynamic.Delta(churn.Next(deltaSize))
					if _, err := session.Apply(ctx, d); err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
					got, err := session.Run(ctx)
					if err != nil {
						t.Fatalf("step %d: run: %v", step, err)
					}
					fresh, err := New(churn.Graph(), churn.Targets(),
						WithPattern(pattern), WithWorkers(workers), WithWarmStart(false))
					if err != nil {
						t.Fatalf("step %d: fresh: %v", step, err)
					}
					want, err := fresh.Run(ctx)
					if err != nil {
						t.Fatalf("step %d: fresh run: %v", step, err)
					}
					if want.WarmStart {
						t.Fatalf("step %d: cold oracle claims warm start", step)
					}
					assertSameSelection(t, fmt.Sprintf("step %d", step), got, want)
				}
				if session.WarmRuns() == 0 {
					t.Fatalf("warm engine never engaged: cold=%d fallbacks=%d", session.ColdRuns(), session.WarmFallbacks())
				}
				if session.WarmRuns()+session.ColdRuns() != 9 {
					t.Fatalf("warm+cold = %d+%d, want 9 total runs", session.WarmRuns(), session.ColdRuns())
				}
				if session.WarmFallbacks() > session.ColdRuns() {
					t.Fatalf("fallbacks %d exceed cold runs %d", session.WarmFallbacks(), session.ColdRuns())
				}
			})
		}
	}
}

// TestWarmMidSelectionApply interleaves budget-limited runs, unbounded runs
// and deltas: the remembered snapshot is alternately a strict prefix (budget
// cap) and a full exhaustion run, exercising both tail strategies and the
// prefix-consistency of greedy across warm replays.
func TestWarmMidSelectionApply(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.BarabasiAlbertTriad(150, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 7, rng)
	ctx := context.Background()

	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)
	budgets := []int{3, 0, 2, 50, 0, 1, 0}
	for step, k := range budgets {
		if step > 0 {
			if _, err := session.Apply(ctx, dynamic.Delta(churn.Next(3))); err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
		}
		got, err := session.Run(ctx, WithBudget(k))
		if err != nil {
			t.Fatalf("step %d: run: %v", step, err)
		}
		fresh, err := New(churn.Graph(), churn.Targets(), WithWarmStart(false))
		if err != nil {
			t.Fatalf("step %d: fresh: %v", step, err)
		}
		want, err := fresh.Run(ctx, WithBudget(k))
		if err != nil {
			t.Fatalf("step %d: fresh run: %v", step, err)
		}
		assertSameSelection(t, fmt.Sprintf("step %d budget %d", step, k), got, want)
	}
	if session.WarmRuns() == 0 {
		t.Fatalf("warm engine never engaged across budget changes: cold=%d fallbacks=%d",
			session.ColdRuns(), session.WarmFallbacks())
	}
}

// TestWarmRepeatRunsNoDelta pins the cheapest warm case: re-running an
// unchanged session replays the identical selection with an empty touched
// set and reports it as warm-started.
func TestWarmRepeatRunsNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbertTriad(120, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	ctx := context.Background()
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	first, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmStart {
		t.Fatal("second run on unchanged session did not warm-start")
	}
	assertSameSelection(t, "repeat", second, first)
	if session.WarmRuns() != 1 || session.ColdRuns() != 1 || session.WarmFallbacks() != 0 {
		t.Fatalf("counters warm=%d cold=%d fallbacks=%d, want 1/1/0",
			session.WarmRuns(), session.ColdRuns(), session.WarmFallbacks())
	}
}

// TestWarmFallbackThreshold tightens the perturbation threshold to zero
// tolerance and checks the session degrades exactly as documented: any
// non-empty touched set forces a counted fallback whose selection is still
// identical, and an untouched session still warm-starts.
func TestWarmFallbackThreshold(t *testing.T) {
	oldDenom := warmTouchedDenom
	warmTouchedDenom = 1 << 40 // any non-empty touched set exceeds the universe
	defer func() { warmTouchedDenom = oldDenom }()

	rng := rand.New(rand.NewSource(13))
	g := gen.BarabasiAlbertTriad(150, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	ctx := context.Background()
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	first, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Protectors) == 0 {
		t.Fatal("fixture selects no protectors")
	}
	// Removing a selected protector is guaranteed to kill instances, so the
	// delta's touched set is non-empty and must trip the zero-tolerance
	// threshold.
	if _, err := session.Apply(ctx, dynamic.Delta{Remove: []graph.Edge{first.Protectors[0]}}); err != nil {
		t.Fatal(err)
	}
	got, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStart {
		t.Fatal("run past the threshold still claims warm start")
	}
	if session.WarmFallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", session.WarmFallbacks())
	}
	p := session.Problem()
	fresh, err := New(p.original(), p.Targets, WithWarmStart(false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, "fallback", got, want)

	// The fallback re-snapshots: an unchanged session warm-starts again.
	again, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !again.WarmStart {
		t.Fatal("run after fallback re-snapshot did not warm-start")
	}
}

// TestWarmStartDisabled pins WithWarmStart(false) at session scope (pure
// cold loop, no snapshot bookkeeping) and the per-run override dance.
func TestWarmStartDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.BarabasiAlbertTriad(130, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	ctx := context.Background()
	session, err := New(g, targets, WithWarmStart(false))
	if err != nil {
		t.Fatal(err)
	}
	churn := gen.NewChurn(g, targets, 0.5, rng)
	for step := 0; step < 3; step++ {
		if step > 0 {
			ins, rem := churn.Next(4)
			if _, err := session.Apply(ctx, dynamic.Delta{Insert: ins, Remove: rem}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := session.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.WarmStart {
			t.Fatalf("step %d: warm-start disabled session served a warm run", step)
		}
	}
	if session.WarmRuns() != 0 || session.ColdRuns() != 3 {
		t.Fatalf("counters warm=%d cold=%d, want 0/3", session.WarmRuns(), session.ColdRuns())
	}
	// Per-run opt-in: the first override run snapshots, the second replays.
	if _, err := session.Run(ctx, WithWarmStart(true)); err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(ctx, WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStart || session.WarmRuns() != 1 {
		t.Fatalf("per-run warm opt-in did not engage (flag=%v warm=%d)", res.WarmStart, session.WarmRuns())
	}
}

// TestWarmAbsorbRemapTruncates unit-tests the snapshot's node-remap
// maintenance: protectors rename in place, a protector losing an endpoint
// truncates the remembered sequence (dropping the exhaustion proof), and
// touched edges rename, drop and merge in canonical order.
func TestWarmAbsorbRemapTruncates(t *testing.T) {
	ws := warmState{
		valid:      true,
		exhausted:  true,
		protectors: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 5}, {U: 3, V: 4}},
		gains:      []int{3, 2, 1},
		touched:    []graph.Edge{{U: 1, V: 2}, {U: 4, V: 6}},
	}
	// Remove node 4 (swap-with-last: 6 renames to 4, and has no edges).
	remap := []graph.NodeID{0, 1, 2, 3, graph.NoNode, 5, 4}
	ws.absorb([]graph.Edge{{U: 0, V: 2}}, remap, graph.New(6), nil)

	if len(ws.protectors) != 2 || len(ws.gains) != 2 {
		t.Fatalf("truncated to %d protectors / %d gains, want 2/2", len(ws.protectors), len(ws.gains))
	}
	if ws.protectors[0] != (graph.Edge{U: 0, V: 1}) || ws.protectors[1] != (graph.Edge{U: 2, V: 5}) {
		t.Fatalf("renamed protectors = %v", ws.protectors)
	}
	if ws.exhausted {
		t.Fatal("truncation must drop the exhaustion proof")
	}
	want := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}
	if len(ws.touched) != len(want) {
		t.Fatalf("touched = %v, want %v", ws.touched, want)
	}
	for i := range want {
		if ws.touched[i] != want[i] {
			t.Fatalf("touched = %v, want %v", ws.touched, want)
		}
	}
}

// TestWarmAbsorbRemapTouchesRenamedEdges: a node renamed to a lower id
// moves its edges earlier in id order, where an untouched one could win a
// gain tie against a remembered protector, so absorb counts each of them
// as touched, once.
func TestWarmAbsorbRemapTouchesRenamedEdges(t *testing.T) {
	ws := warmState{
		valid:      true,
		protectors: []graph.Edge{{U: 2, V: 3}},
		gains:      []int{1},
	}
	// Remove nodes 1 and 2 of 6: 5 renames to 2, then 4 to 1. The renamed
	// graph joins the two renamed nodes and gives each one more edge.
	remap := []graph.NodeID{0, graph.NoNode, graph.NoNode, 3, 1, 2}
	g := graph.FromEdges(4, []graph.Edge{{U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 3}})
	ws.absorb(nil, remap, g, nil)
	want := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	if fmt.Sprint(ws.touched) != fmt.Sprint(want) {
		t.Fatalf("touched = %v, want %v", ws.touched, want)
	}
}

// TestMergeTouchedZeroAlloc pins the touched-merge kernel's steady-state
// allocation contract once the destination buffer has warmed up.
func TestMergeTouchedZeroAlloc(t *testing.T) {
	a := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: 2, V: 4}}
	b := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 3}, {U: 5, V: 6}}
	dst := make([]graph.Edge, 0, len(a)+len(b))
	allocs := testing.AllocsPerRun(100, func() {
		dst = mergeTouched(dst, a, b)
	})
	if allocs != 0 {
		t.Fatalf("mergeTouched allocates %v times per run with warm capacity, want 0", allocs)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 4}, {U: 5, V: 6}}
	if len(dst) != len(want) {
		t.Fatalf("merged = %v, want %v", dst, want)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("merged = %v, want %v", dst, want)
		}
	}
}

// FuzzWarmSelectionParity drives the warm-vs-cold identity from raw bytes:
// the first byte picks pattern, engine and workers; each byte pair then
// encodes edge churn, node arrivals and departures, target add/drop,
// budget-capped and unbounded protection runs, interleaved freely. After
// every run the warm session's selection must equal a cold run by a fresh
// session on the identical state — including runs straight after partial
// (budget-capped) selections and after node remaps.
func FuzzWarmSelectionParity(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x11, 0x00, 0x89, 0xab, 0x22, 0x02})
	f.Add([]byte{0xff, 0x00, 0x10, 0x33, 0x33, 0x20, 0x30, 0x44, 0x44, 0x50, 0x60})
	f.Add([]byte{0x02, 0x11, 0x11, 0x55, 0x55, 0x33, 0x05, 0x22, 0x44, 0x66, 0x66})
	f.Add([]byte{0xfc, 0x00, 0x10, 0x33, 0x33, 0x20, 0x30, 0x44, 0x44, 0x50, 0x60})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pattern := motif.AllPatterns[int(data[0])%len(motif.AllPatterns)]
		workers := 1 + int(data[0]/16)%3
		rng := rand.New(rand.NewSource(3))
		g := gen.BarabasiAlbertTriad(48, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		ctx := context.Background()

		session, err := New(g, targets, WithPattern(pattern), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}

		var d dynamic.Delta
		seen := make(map[graph.Edge]struct{})
		isTarget := func(e graph.Edge) bool {
			for _, tt := range session.Problem().Targets {
				if tt == e {
					return true
				}
			}
			return false
		}
		targetEndpoint := func(x graph.NodeID) bool {
			for _, tt := range session.Problem().Targets {
				if tt.Has(x) {
					return true
				}
			}
			return false
		}
		flush := func() {
			clear(seen)
			if d.Empty() {
				return
			}
			if _, err := session.Apply(ctx, d); err != nil {
				t.Fatalf("apply %+v: %v", d, err)
			}
			d = dynamic.Delta{}
		}
		runBoth := func(budget int) {
			flush()
			got, err := session.Run(ctx, WithBudget(budget))
			if err != nil {
				t.Fatalf("run (budget %d): %v", budget, err)
			}
			p := session.Problem()
			fresh, err := New(p.original(), p.Targets,
				WithPattern(pattern), WithWorkers(workers), WithWarmStart(false))
			if err != nil {
				t.Fatalf("fresh session: %v", err)
			}
			want, err := fresh.Run(ctx, WithBudget(budget))
			if err != nil {
				t.Fatalf("fresh run (budget %d): %v", budget, err)
			}
			assertSameSelection(t, fmt.Sprintf("budget %d", budget), got, want)
		}

		for i := 1; i+1 < len(data); i += 2 {
			p := session.Problem()
			n := graph.NodeID(p.G.NumNodes())
			u, v := graph.NodeID(data[i])%n, graph.NodeID(data[i+1])%n
			if u == v {
				switch data[i+1] % 6 {
				case 0:
					runBoth(0) // unbounded (critical budget)
				case 1:
					runBoth(1 + int(data[i])%5) // budget-capped: partial snapshot
				case 2:
					d.AddNodes++
				case 3:
					// Node departure in its own batch, edges removed with it.
					// Re-fetch the problem: flush may have churned the graph.
					flush()
					p = session.Problem()
					if targetEndpoint(u) || int(u) >= p.G.NumNodes() {
						continue
					}
					dep := dynamic.Delta{RemoveNodes: []graph.NodeID{u}}
					for _, w := range p.G.Neighbors(u) {
						dep.Remove = append(dep.Remove, graph.NewEdge(u, w))
					}
					d = dep
					flush()
				case 4:
					// Target churn: drop when more than one remains, else add
					// the first admissible absent pair scanning from u.
					cur := p.Targets
					if len(cur) > 1 && len(d.DropTargets) == 0 && len(d.AddTargets) == 0 {
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
						if isTarget(e) || p.G.HasEdgeE(e) {
							continue
						}
						seen[e] = struct{}{}
						d.AddTargets = append(d.AddTargets, e)
						break
					}
				case 5:
					flush()
				}
				continue
			}
			e := graph.NewEdge(u, v)
			if isTarget(e) {
				continue
			}
			if _, ok := seen[e]; ok {
				continue
			}
			seen[e] = struct{}{}
			if p.G.HasEdgeE(e) {
				d.Remove = append(d.Remove, e)
			} else {
				d.Insert = append(d.Insert, e)
			}
			if d.Size() >= 5 {
				flush()
			}
		}
		runBoth(0)
	})
}
