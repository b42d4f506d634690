package motif

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestGlobalCountTriangleOnClique(t *testing.T) {
	// K4 has 4 triangles; each triangle is counted once per closing edge
	// (3 edges) → GlobalCount = 12. Equivalently: each of the 6 edges has
	// 2 common-neighbour completions.
	if got := GlobalCount(gen.Complete(4), Triangle); got != 12 {
		t.Fatalf("GlobalCount(K4, Triangle) = %d, want 12", got)
	}
	// Trees are triangle-free.
	if got := GlobalCount(gen.Path(10), Triangle); got != 0 {
		t.Fatalf("GlobalCount(path, Triangle) = %d, want 0", got)
	}
}

func TestGlobalCountDoesNotMutate(t *testing.T) {
	g := gen.Complete(5)
	m := g.NumEdges()
	GlobalCount(g, RecTri)
	if g.NumEdges() != m {
		t.Fatal("GlobalCount mutated the graph")
	}
}

func TestGlobalCountRectangleOnCycle(t *testing.T) {
	// C4: every edge closes exactly one 3-path → GlobalCount = 4.
	if got := GlobalCount(cycle(4), Rectangle); got != 4 {
		t.Fatalf("GlobalCount(C4, Rectangle) = %d, want 4", got)
	}
}

func TestProfileTriadGraphOverrepresentsTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Holme–Kim graphs are built by triadic closure: triangles must be
	// significantly over-represented versus the degree-preserving null.
	g := gen.BarabasiAlbertTriad(150, 3, 0.8, rng)
	profile := Profile(g, []Pattern{Triangle}, 5, rng)
	if len(profile) != 1 {
		t.Fatalf("profile size = %d", len(profile))
	}
	s := profile[0]
	if s.Observed == 0 {
		t.Fatal("no triangles in a triad-formation graph?")
	}
	if s.ZScore < 2 {
		t.Fatalf("triangle z-score = %v, expected strong over-representation (obs=%d null=%.1f±%.1f)",
			s.ZScore, s.Observed, s.NullMean, s.NullStd)
	}
}

func TestMostSignificantPicksTriangleOnClusteredGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.BarabasiAlbertTriad(120, 3, 0.8, rng)
	best := MostSignificant(g, []Pattern{Triangle, Rectangle}, 4, rng)
	if best != Triangle {
		t.Fatalf("recommended motif = %v, want Triangle on a triadic-closure graph", best)
	}
}

func TestSwitchRandomizePreservesDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbertTriad(80, 3, 0.5, rng)
	null := switchRandomize(g, 4*g.NumEdges(), rng)
	gd, nd := g.Degrees(), null.Degrees()
	for v := range gd {
		if gd[v] != nd[v] {
			t.Fatalf("degree of %d changed: %d -> %d", v, gd[v], nd[v])
		}
	}
	// And it actually randomized something.
	changed := 0
	null.EachEdge(func(e graph.Edge) bool {
		if !g.HasEdgeE(e) {
			changed++
		}
		return true
	})
	if changed == 0 {
		t.Fatal("null model identical to input")
	}
}

func TestProfileMinimumSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := cycle(8)
	// samples < 2 is clamped, not an error.
	profile := Profile(g, []Pattern{Rectangle}, 1, rng)
	if len(profile) != 1 {
		t.Fatal("profile missing")
	}
}
