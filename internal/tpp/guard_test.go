package tpp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

func newTestGuard(t *testing.T, seed int64, pattern motif.Pattern) (*Guard, *Problem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbertTriad(60, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	p, err := NewProblem(g, pattern, targets)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := NewGuardCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return gd, p
}

func TestGuardStartsFullyProtected(t *testing.T) {
	gd, _ := newTestGuard(t, 1, motif.Triangle)
	if s := gd.Similarity(); s != 0 {
		t.Fatalf("initial similarity = %d, want 0", s)
	}
	if len(gd.Deletions) == 0 {
		t.Fatal("initial protection deleted nothing on a clustered graph")
	}
}

func TestGuardRejectsTargets(t *testing.T) {
	gd, p := newTestGuard(t, 2, motif.Triangle)
	tgt := p.Targets[0]
	admitted, deleted, err := gd.AddEdge(tgt.U, tgt.V)
	if err != nil {
		t.Fatal(err)
	}
	if admitted || deleted != nil {
		t.Fatalf("target admission: admitted=%v deleted=%v", admitted, deleted)
	}
	if gd.Rejected != 1 {
		t.Fatalf("rejected count = %d", gd.Rejected)
	}
	if gd.Graph().HasEdgeE(tgt) {
		t.Fatal("target present after rejection")
	}
}

func TestGuardRestoresProtectionAfterDangerousInsertion(t *testing.T) {
	gd, p := newTestGuard(t, 3, motif.Triangle)
	tgt := p.Targets[0]
	// Find a node x such that adding x-U and x-V would complete a triangle
	// for the target; insert both and require the guard to intervene.
	var x graph.NodeID = -1
	for v := 0; v < gd.Graph().NumNodes(); v++ {
		nv := graph.NodeID(v)
		if nv != tgt.U && nv != tgt.V && !gd.Graph().HasEdge(nv, tgt.U) && !gd.Graph().HasEdge(nv, tgt.V) {
			x = nv
			break
		}
	}
	if x < 0 {
		t.Skip("no suitable node found")
	}
	if _, _, err := gd.AddEdge(x, tgt.U); err != nil {
		t.Fatal(err)
	}
	admitted, deleted, err := gd.AddEdge(x, tgt.V)
	if err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Fatal("legal insertion rejected")
	}
	if len(deleted) == 0 {
		t.Fatal("guard did not intervene against a completing insertion")
	}
	if s := gd.Similarity(); s != 0 {
		t.Fatalf("similarity after intervention = %d, want 0", s)
	}
}

func TestGuardIdempotentInsertion(t *testing.T) {
	gd, _ := newTestGuard(t, 4, motif.Triangle)
	e := gd.Graph().Edges()[0]
	admitted, deleted, err := gd.AddEdge(e.U, e.V)
	if err != nil {
		t.Fatal(err)
	}
	if !admitted || deleted != nil {
		t.Fatal("re-inserting an existing edge should be a harmless no-op")
	}
}

func TestGuardInputValidation(t *testing.T) {
	gd, _ := newTestGuard(t, 5, motif.Triangle)
	if _, _, err := gd.AddEdge(1, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, _, err := gd.AddEdge(0, graph.NodeID(gd.Graph().NumNodes()+5)); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestGuardAddNode(t *testing.T) {
	gd, _ := newTestGuard(t, 6, motif.Triangle)
	n := gd.Graph().NumNodes()
	id := gd.AddNode()
	if int(id) != n || gd.Graph().NumNodes() != n+1 {
		t.Fatalf("AddNode id=%d nodes=%d", id, gd.Graph().NumNodes())
	}
	// Wiring the new node in is guarded like any other insertion.
	if _, _, err := gd.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	if gd.Similarity() != 0 {
		t.Fatal("invariant broken after wiring a new node")
	}
}

// Property: under arbitrary random insertion streams, the invariant holds
// after every step, for every pattern, and targets never reappear.
func TestPropertyGuardInvariant(t *testing.T) {
	for _, pattern := range motif.Patterns {
		pattern := pattern
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := gen.BarabasiAlbertTriad(30, 3, 0.5, rng)
			targets := datasets.SampleTargets(g, 3, rng)
			p, err := NewProblem(g, pattern, targets)
			if err != nil {
				return false
			}
			gd, err := NewGuardCtx(context.Background(), p)
			if err != nil {
				return false
			}
			n := gd.Graph().NumNodes()
			for step := 0; step < 15; step++ {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				if _, _, err := gd.AddEdge(u, v); err != nil {
					return false
				}
				if gd.Similarity() != 0 {
					return false
				}
				for _, tgt := range targets {
					if gd.Graph().HasEdgeE(tgt) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Fatalf("pattern %v: %v", pattern, err)
		}
	}
}
