package tpp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// TestSessionApplyParity drives an evolving session through a churn stream
// and checks, after every delta, that its selections equal those of a
// brand-new session on the mutated graph — the session-level face of the
// index parity property.
func TestSessionApplyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.BarabasiAlbertTriad(150, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 6, rng)
	ctx := context.Background()

	session, err := New(g, targets, WithPattern(motif.Rectangle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil { // warm the index
		t.Fatal(err)
	}
	churn := gen.NewChurn(g, targets, 0.5, rng)

	for step := 0; step < 6; step++ {
		ins, rem := churn.Next(5)
		rep, err := session.Apply(ctx, dynamic.Delta{Insert: ins, Remove: rem})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !rep.Incremental {
			t.Fatalf("step %d: expected incremental apply on warm session", step)
		}
		got, err := session.Run(ctx)
		if err != nil {
			t.Fatalf("step %d: run: %v", step, err)
		}
		freshSession, err := New(churn.Graph(), targets, WithPattern(motif.Rectangle))
		if err != nil {
			t.Fatalf("step %d: fresh session: %v", step, err)
		}
		want, err := freshSession.Run(ctx)
		if err != nil {
			t.Fatalf("step %d: fresh run: %v", step, err)
		}
		if len(got.Protectors) != len(want.Protectors) {
			t.Fatalf("step %d: %d protectors, fresh session selected %d", step, len(got.Protectors), len(want.Protectors))
		}
		for i := range want.Protectors {
			if got.Protectors[i] != want.Protectors[i] {
				t.Fatalf("step %d: protector %d = %v, fresh session selected %v", step, i, got.Protectors[i], want.Protectors[i])
			}
		}
		for i := range want.SimilarityTrace {
			if got.SimilarityTrace[i] != want.SimilarityTrace[i] {
				t.Fatalf("step %d: trace[%d] = %d, want %d", step, i, got.SimilarityTrace[i], want.SimilarityTrace[i])
			}
		}
	}
	if session.IndexBuilds() != 1 {
		t.Fatalf("index builds = %d, want 1 (deltas must not trigger rebuilds)", session.IndexBuilds())
	}
	if session.DeltasApplied() != 6 {
		t.Fatalf("deltas applied = %d, want 6", session.DeltasApplied())
	}
}

// TestSessionApplyDetachesGraph verifies the first Apply clones: the graph
// handed to New stays untouched.
func TestSessionApplyDetachesGraph(t *testing.T) {
	g := gen.Cycle(8)
	g.AddEdge(0, 2) // triangle completion for target (1,2)... target below
	targets := []graph.Edge{{U: 0, V: 1}}
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumEdges()
	rep, err := session.Apply(context.Background(), dynamic.Delta{Insert: []graph.Edge{{U: 3, V: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Fatalf("caller graph mutated: %d edges, want %d", g.NumEdges(), before)
	}
	if g.HasEdge(3, 6) {
		t.Fatal("caller graph gained the inserted edge")
	}
	if rep.Edges != before+1 {
		t.Fatalf("report edges = %d, want %d", rep.Edges, before+1)
	}
	if rep.Incremental {
		t.Fatal("no index built yet; apply must not claim incremental maintenance")
	}
	// Release after a run reflects the session's mutated graph.
	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if released := session.Release(res); !released.HasEdge(3, 6) {
		t.Fatal("released graph missing the inserted edge")
	}
}

func TestSessionApplyRejectsInvalidDeltas(t *testing.T) {
	g := gen.Complete(6)
	targets := []graph.Edge{{U: 0, V: 1}}
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, d := range map[string]dynamic.Delta{
		"remove target":   {Remove: []graph.Edge{{U: 0, V: 1}}},
		"insert existing": {Insert: []graph.Edge{{U: 2, V: 3}}},
		"self loop":       {Insert: []graph.Edge{{U: 4, V: 4}}},
		"out of range":    {Insert: []graph.Edge{{U: 0, V: 99}}},
	} {
		if _, err := session.Apply(ctx, d); !errors.Is(err, dynamic.ErrInvalid) {
			t.Errorf("%s: err = %v, want dynamic.ErrInvalid", name, err)
		}
	}
	if session.DeltasApplied() != 0 {
		t.Fatalf("deltas applied = %d, want 0 after rejections", session.DeltasApplied())
	}
}

func TestSessionApplyHonoursContext(t *testing.T) {
	g := gen.Complete(8)
	session, err := New(g, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := session.Apply(ctx, dynamic.Delta{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSessionApplyFullMutationParity drives an evolving session through a
// full mutation stream — edge churn, node arrivals/departures, target
// add/drop — and checks, after every delta, that its selections equal those
// of a brand-new session on the mutated graph and mutated target list: the
// acceptance property of delta schema v2.
func TestSessionApplyFullMutationParity(t *testing.T) {
	for _, pattern := range []motif.Pattern{motif.Triangle, motif.Rectangle} {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(31 * int64(pattern+1)))
			g := gen.BarabasiAlbertTriad(150, 3, 0.4, rng)
			targets := datasets.SampleTargets(g, 6, rng)
			ctx := context.Background()

			session, err := New(g, targets, WithPattern(pattern))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := session.Run(ctx); err != nil { // warm the index
				t.Fatal(err)
			}
			churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng)

			var sawNodeChurn, sawTargetChurn bool
			for step := 0; step < 8; step++ {
				d := dynamic.Delta(churn.Next(6))
				rep, err := session.Apply(ctx, d)
				if err != nil {
					t.Fatalf("step %d: apply %+v: %v", step, d, err)
				}
				if !rep.Incremental {
					t.Fatalf("step %d: expected incremental apply on warm session", step)
				}
				sawNodeChurn = sawNodeChurn || rep.NodesAdded > 0 || rep.NodesRemoved > 0
				sawTargetChurn = sawTargetChurn || rep.TargetsAdded > 0 || rep.TargetsDropped > 0
				if (rep.NodeRemap != nil) != (rep.NodesRemoved > 0) {
					t.Fatalf("step %d: remap presence (%v) disagrees with %d removals", step, rep.NodeRemap != nil, rep.NodesRemoved)
				}

				// The session's problem must track the churn mirror exactly.
				p := session.Problem()
				wantTargets := churn.Targets()
				if rep.Targets != len(wantTargets) || len(p.Targets) != len(wantTargets) {
					t.Fatalf("step %d: session has %d targets, churn mirror %d", step, len(p.Targets), len(wantTargets))
				}
				for i := range wantTargets {
					if p.Targets[i] != wantTargets[i] {
						t.Fatalf("step %d: target %d = %v, churn mirror has %v", step, i, p.Targets[i], wantTargets[i])
					}
				}
				// One graph: the session holds the phase-1 graph alone (no
				// target link in it), and its footprint counts nothing else.
				if p.G.NumNodes() != churn.Graph().NumNodes() || p.G.NumEdges()+len(p.Targets) != churn.Graph().NumEdges() {
					t.Fatalf("step %d: session graph %v plus %d targets, churn mirror %v", step, p.G, len(p.Targets), churn.Graph())
				}
				if rep.Nodes != p.G.NumNodes() || rep.Edges != churn.Graph().NumEdges() {
					t.Fatalf("step %d: report counts %d nodes, %d edges; churn mirror %v", step, rep.Nodes, rep.Edges, churn.Graph())
				}
				for _, tgt := range p.Targets {
					if p.G.HasEdgeE(tgt) {
						t.Fatalf("step %d: target %v is a link of the session graph", step, tgt)
					}
				}
				wantBytes := sessionBaseBytes + p.G.MemFootprint() + int64(cap(p.Targets))*8 + session.targets.MemFootprint() +
					session.ix.MemFootprint() + session.warm.memFootprint()
				if got := session.MemFootprint(); got != wantBytes {
					t.Fatalf("step %d: footprint %d, want %d = base + graph + targets (list and set) + index + warm", step, got, wantBytes)
				}
				// The session's target set must track the list it validates
				// deltas against.
				if session.targets.Len() != len(p.Targets) {
					t.Fatalf("step %d: target set holds %d targets, list %d", step, session.targets.Len(), len(p.Targets))
				}
				for _, tgt := range p.Targets {
					if !session.targets.Has(tgt) {
						t.Fatalf("step %d: target %v missing from the session's target set", step, tgt)
					}
				}

				got, err := session.Run(ctx)
				if err != nil {
					t.Fatalf("step %d: run: %v", step, err)
				}
				freshSession, err := New(churn.Graph(), wantTargets, WithPattern(pattern))
				if err != nil {
					t.Fatalf("step %d: fresh session: %v", step, err)
				}
				want, err := freshSession.Run(ctx)
				if err != nil {
					t.Fatalf("step %d: fresh run: %v", step, err)
				}
				if len(got.Protectors) != len(want.Protectors) {
					t.Fatalf("step %d: %d protectors, fresh session selected %d", step, len(got.Protectors), len(want.Protectors))
				}
				for i := range want.Protectors {
					if got.Protectors[i] != want.Protectors[i] {
						t.Fatalf("step %d: protector %d = %v, fresh session selected %v", step, i, got.Protectors[i], want.Protectors[i])
					}
				}
				for i := range want.SimilarityTrace {
					if got.SimilarityTrace[i] != want.SimilarityTrace[i] {
						t.Fatalf("step %d: trace[%d] = %d, want %d", step, i, got.SimilarityTrace[i], want.SimilarityTrace[i])
					}
				}
				for i := range want.PerTargetFinal {
					if got.PerTargetFinal[i] != want.PerTargetFinal[i] {
						t.Fatalf("step %d: perTarget[%d] = %d, want %d", step, i, got.PerTargetFinal[i], want.PerTargetFinal[i])
					}
				}
			}
			if session.IndexBuilds() != 1 {
				t.Fatalf("index builds = %d, want 1 (deltas must not trigger rebuilds)", session.IndexBuilds())
			}
			if !sawNodeChurn || !sawTargetChurn {
				t.Fatalf("stream exercised nodeChurn=%v targetChurn=%v; want both (tune seed)", sawNodeChurn, sawTargetChurn)
			}
		})
	}
}

// TestSessionApplyRejectsInvalidMutations extends the rejection table to
// delta schema v2; every rejection must leave the session fully usable.
func TestSessionApplyRejectsInvalidMutations(t *testing.T) {
	g := gen.Complete(6)
	targets := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, d := range map[string]dynamic.Delta{
		"add existing target":     {AddTargets: []graph.Edge{{U: 0, V: 1}}},
		"add present edge target": {AddTargets: []graph.Edge{{U: 4, V: 5}}},
		"drop non-target":         {DropTargets: []graph.Edge{{U: 4, V: 5}}},
		"drop every target":       {DropTargets: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}},
		"remove busy node":        {RemoveNodes: []graph.NodeID{5}},
		"remove target endpoint":  {RemoveNodes: []graph.NodeID{0}},
		"negative add nodes":      {AddNodes: -2},
	} {
		if _, err := session.Apply(ctx, d); !errors.Is(err, dynamic.ErrInvalid) {
			t.Errorf("%s: err = %v, want dynamic.ErrInvalid", name, err)
		}
	}
	if session.DeltasApplied() != 0 {
		t.Fatalf("deltas applied = %d, want 0 after rejections", session.DeltasApplied())
	}
	if _, err := session.Run(ctx); err != nil {
		t.Fatalf("run after rejections: %v", err)
	}
}

// TestSessionApplyTargetChurnCold checks the index-free path: target edits
// on a session that has never run must still update the problem so the
// first Run builds the right index.
func TestSessionApplyTargetChurnCold(t *testing.T) {
	g := gen.Complete(7)
	targets := []graph.Edge{{U: 0, V: 1}}
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := session.Apply(ctx, dynamic.Delta{
		Remove:     []graph.Edge{{U: 2, V: 3}},
		AddTargets: []graph.Edge{{U: 2, V: 3}}, // two deltas' worth in spirit, but...
	}); !errors.Is(err, dynamic.ErrInvalid) {
		t.Fatalf("remove+add-target of same pair: err = %v, want ErrInvalid", err)
	}
	rep, err := session.Apply(ctx, dynamic.Delta{Remove: []graph.Edge{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incremental {
		t.Fatal("cold session claimed incremental maintenance")
	}
	rep, err = session.Apply(ctx, dynamic.Delta{AddTargets: []graph.Edge{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets != 2 || rep.Edges != g.NumEdges() { // removed one, target add restored one
		t.Fatalf("report = %+v, want 2 targets and %d edges", rep, g.NumEdges())
	}
	res, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTargetFinal) != 2 {
		t.Fatalf("run tracked %d targets, want 2", len(res.PerTargetFinal))
	}
	// Parity against a fresh session on the session's own current state.
	p := session.Problem()
	fresh, err := New(p.original(), p.Targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) != len(want.Protectors) {
		t.Fatalf("%d protectors, fresh session selected %d", len(res.Protectors), len(want.Protectors))
	}
	for i := range want.Protectors {
		if res.Protectors[i] != want.Protectors[i] {
			t.Fatalf("protector %d = %v, fresh selected %v", i, res.Protectors[i], want.Protectors[i])
		}
	}
}

// TestPropertyGuardInvariant drives the loop that guards a published
// release as it grows (examples/trustsystem): the
// session's phase-1 graph is the release, each critical-budget run's
// protectors are removed from it with a delta, and every admitted
// insertion or node arrival is applied and followed by a re-protection.
// After each step the long-lived session's protectors must equal, in
// order, those of a fresh session on the same graph and targets; the
// release must then have similarity zero, and a target link must not be
// insertable.
func TestPropertyGuardInvariant(t *testing.T) {
	ctx := context.Background()
	for _, pattern := range motif.AllPatterns {
		t.Run(pattern.String(), func(t *testing.T) {
			t.Parallel()
			interventions := 0
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := gen.BarabasiAlbertTriad(40, 3, 0.5, rng)
				targets := datasets.SampleTargets(g, 3, rng)
				session, err := New(g, targets, WithPattern(pattern))
				if err != nil {
					t.Fatal(err)
				}
				p := session.Problem()
				protect := func(step int) {
					fresh, err := New(p.original(), p.Targets, WithPattern(pattern))
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					want, err := fresh.Run(ctx)
					if err != nil {
						t.Fatalf("seed %d step %d: fresh: %v", seed, step, err)
					}
					res, err := session.Run(ctx)
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					if !slices.Equal(res.Protectors, want.Protectors) {
						t.Fatalf("seed %d step %d: session protectors %v, fresh session %v",
							seed, step, res.Protectors, want.Protectors)
					}
					if len(res.Protectors) > 0 {
						interventions++
						if _, err := session.Apply(ctx, dynamic.Delta{Remove: res.Protectors}); err != nil {
							t.Fatalf("seed %d step %d: removing protectors: %v", seed, step, err)
						}
					}
					if s := p.InitialSimilarity(); s != 0 {
						t.Fatalf("seed %d step %d: release similarity %d after re-protection", seed, step, s)
					}
					tgt := p.Targets[rng.Intn(len(p.Targets))]
					if _, err := session.Apply(ctx, dynamic.Delta{Insert: []graph.Edge{tgt}}); !errors.Is(err, dynamic.ErrInvalid) {
						t.Fatalf("seed %d step %d: inserting target %v: err = %v, want dynamic.ErrInvalid", seed, step, tgt, err)
					}
				}
				protect(-1)
				for step := 0; step < 40; step++ {
					n := p.G.NumNodes()
					u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					switch {
					case step%10 == 0: // a member joins and makes a friend
						if _, err := session.Apply(ctx, dynamic.Delta{AddNodes: 1}); err != nil {
							t.Fatal(err)
						}
						v = graph.NodeID(n)
					case step%3 == 0: // triadic closure next to a target
						tgt := p.Targets[rng.Intn(len(p.Targets))]
						if nbrs := p.G.Neighbors(tgt.U); len(nbrs) > 0 {
							u, v = nbrs[rng.Intn(len(nbrs))], tgt.V
						}
					}
					if u == v {
						continue
					}
					e := graph.NewEdge(u, v)
					if p.TargetIndex(e) >= 0 || p.G.HasEdgeE(e) {
						continue
					}
					if _, err := session.Apply(ctx, dynamic.Delta{Insert: []graph.Edge{e}}); err != nil {
						t.Fatalf("seed %d step %d: inserting %v: %v", seed, step, e, err)
					}
					protect(step)
				}
			}
			if interventions <= 6 {
				t.Fatalf("only %d runs deleted protectors (6 are initial protections): no insertion re-exposed a target", interventions)
			}
		})
	}
}

// newTestGuard builds a session whose phase-1 graph is a published release
// and protects it, returning the session and the initial deletions.
func newTestGuard(t *testing.T, seed int64, pattern motif.Pattern) (*Protector, []graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbertTriad(60, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	session, err := New(g, targets, WithPattern(pattern))
	if err != nil {
		t.Fatal(err)
	}
	return session, protectRelease(t, session)
}

// protectRelease runs the session at the critical budget and removes the
// protectors it selected from the release, returning them.
func protectRelease(t *testing.T, session *Protector) []graph.Edge {
	t.Helper()
	ctx := context.Background()
	res, err := session.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) > 0 {
		if _, err := session.Apply(ctx, dynamic.Delta{Remove: res.Protectors}); err != nil {
			t.Fatal(err)
		}
	}
	return res.Protectors
}

// insertAndProtect applies one new link to the release and re-protects,
// returning the protectors the re-protection deleted.
func insertAndProtect(t *testing.T, session *Protector, u, v graph.NodeID) []graph.Edge {
	t.Helper()
	e := graph.NewEdge(u, v)
	if _, err := session.Apply(context.Background(), dynamic.Delta{Insert: []graph.Edge{e}}); err != nil {
		t.Fatalf("inserting %v: %v", e, err)
	}
	return protectRelease(t, session)
}

func TestGuardStartsFullyProtected(t *testing.T) {
	session, deleted := newTestGuard(t, 1, motif.Triangle)
	if s := session.Problem().InitialSimilarity(); s != 0 {
		t.Fatalf("initial similarity = %d, want 0", s)
	}
	if len(deleted) == 0 {
		t.Fatal("initial protection deleted nothing on a clustered graph")
	}
	for _, e := range deleted {
		if session.Problem().G.HasEdgeE(e) {
			t.Fatalf("protector %v still in the release", e)
		}
	}
}

func TestGuardRejectsTargets(t *testing.T) {
	session, _ := newTestGuard(t, 2, motif.Triangle)
	p := session.Problem()
	tgt := p.Targets[0]
	edges := p.G.NumEdges()
	_, err := session.Apply(context.Background(), dynamic.Delta{Insert: []graph.Edge{tgt}})
	if !errors.Is(err, dynamic.ErrInvalid) {
		t.Fatalf("inserting target %v: err = %v, want dynamic.ErrInvalid", tgt, err)
	}
	if p.G.HasEdgeE(tgt) {
		t.Fatal("target present after rejection")
	}
	if p.G.NumEdges() != edges {
		t.Fatalf("rejected delta changed the release: %d edges, want %d", p.G.NumEdges(), edges)
	}
}

func TestGuardRestoresProtectionAfterDangerousInsertion(t *testing.T) {
	session, _ := newTestGuard(t, 3, motif.Triangle)
	p := session.Problem()
	tgt := p.Targets[0]
	// Find a node x such that adding x-U and x-V would complete a triangle
	// for the target; insert both and require a re-protection to intervene.
	var x graph.NodeID = -1
	for v := 0; v < p.G.NumNodes(); v++ {
		nv := graph.NodeID(v)
		if nv != tgt.U && nv != tgt.V && !p.G.HasEdge(nv, tgt.U) && !p.G.HasEdge(nv, tgt.V) {
			x = nv
			break
		}
	}
	if x < 0 {
		t.Skip("no suitable node found")
	}
	insertAndProtect(t, session, x, tgt.U)
	if !p.G.HasEdge(x, tgt.U) {
		// The re-protection may remove the first link itself; put it back
		// so the second one completes a triangle.
		insertAndProtect(t, session, x, tgt.U)
	}
	deleted := insertAndProtect(t, session, x, tgt.V)
	if len(deleted) == 0 {
		t.Fatal("no intervention against a completing insertion")
	}
	if s := p.InitialSimilarity(); s != 0 {
		t.Fatalf("similarity after intervention = %d, want 0", s)
	}
}

func TestGuardAddNode(t *testing.T) {
	session, _ := newTestGuard(t, 6, motif.Triangle)
	p := session.Problem()
	n := p.G.NumNodes()
	rep, err := session.Apply(context.Background(), dynamic.Delta{AddNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := graph.NodeID(rep.Nodes - 1)
	if int(id) != n || p.G.NumNodes() != n+1 {
		t.Fatalf("added node id=%d nodes=%d", id, p.G.NumNodes())
	}
	// Wiring the new node in is guarded like any other insertion.
	insertAndProtect(t, session, id, 0)
	if p.InitialSimilarity() != 0 {
		t.Fatal("invariant broken after wiring a new node")
	}
}
