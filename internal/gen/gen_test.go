package gen

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestErdosRenyiGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyiGNM(50, 120, rng)
	if g.NumNodes() != 50 || g.NumEdges() != 120 {
		t.Fatalf("G(50,120) got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestErdosRenyiGNMTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m > n(n-1)/2")
		}
	}()
	ErdosRenyiGNM(4, 10, rand.New(rand.NewSource(1)))
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m := 500, 3
	g := BarabasiAlbert(n, m, rng)
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// m0 = m+1 clique edges + m per subsequent node.
	wantEdges := m*(m+1)/2 + (n-m-1)*m
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Scale-free: the max degree should far exceed the mean degree.
	mean := 2 * float64(g.NumEdges()) / float64(n)
	if float64(g.MaxDegree()) < 3*mean {
		t.Fatalf("max degree %d not heavy-tailed versus mean %.1f", g.MaxDegree(), mean)
	}
}

func TestBarabasiAlbertTriadClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g0 := BarabasiAlbert(400, 4, rand.New(rand.NewSource(5)))
	g1 := BarabasiAlbertTriad(400, 4, 0.8, rng)
	c0 := avgClustering(g0)
	c1 := avgClustering(g1)
	if c1 <= c0 {
		t.Fatalf("triad formation should raise clustering: plain=%.3f triad=%.3f", c0, c1)
	}
}

func avgClustering(g *graph.Graph) float64 {
	var sum float64
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		d := len(nbrs)
		if d < 2 {
			continue
		}
		tri := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) {
					tri++
				}
			}
		}
		sum += 2 * float64(tri) / float64(d*(d-1))
	}
	return sum / float64(n)
}

func TestBarabasiAlbertBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= m")
		}
	}()
	BarabasiAlbert(3, 3, rand.New(rand.NewSource(1)))
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := WattsStrogatz(100, 6, 0, rng)
	if g.NumEdges() != 300 {
		t.Fatalf("ring lattice edges = %d, want 300", g.NumEdges())
	}
	for v := 0; v < 100; v++ {
		if g.Degree(graph.NodeID(v)) != 6 {
			t.Fatalf("lattice should be 6-regular, node %d has degree %d", v, g.Degree(graph.NodeID(v)))
		}
	}
	gr := WattsStrogatz(100, 6, 0.5, rng)
	if gr.NumEdges() == 0 || gr.NumEdges() > 300 {
		t.Fatalf("rewired edges = %d out of range", gr.NumEdges())
	}
}

func TestWattsStrogatzOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd k")
		}
	}()
	WattsStrogatz(10, 3, 0.1, rand.New(rand.NewSource(1)))
}

func TestConfigurationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	degs := []int{3, 3, 2, 2, 2, 2}
	g := ConfigurationModel(degs, rng)
	if g.NumNodes() != len(degs) {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Erased model: realised degrees never exceed requested ones.
	for v, want := range degs {
		if got := g.Degree(graph.NodeID(v)); got > want {
			t.Fatalf("node %d degree %d exceeds requested %d", v, got, want)
		}
	}
}

func TestPowerLawDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	degs := PowerLawDegrees(1000, 2.5, 2, 100, rng)
	sum := 0
	for _, d := range degs {
		if d < 2 || d > 100 {
			t.Fatalf("degree %d outside [2,100]", d)
		}
		sum += d
	}
	if sum%2 != 0 {
		t.Fatal("degree sum must be even")
	}
}

func TestDeterministicFamilies(t *testing.T) {
	if g := Complete(5); g.NumEdges() != 10 {
		t.Fatalf("K5 edges = %d", g.NumEdges())
	}
	if g := Star(5); g.NumEdges() != 4 || g.Degree(0) != 4 {
		t.Fatalf("star wrong: %v", g)
	}
	if g := Path(5); g.NumEdges() != 4 || g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("path wrong: %v", g)
	}
}

// Property: all generators are deterministic given the seed.
func TestPropertySeedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := BarabasiAlbertTriad(60, 3, 0.4, rand.New(rand.NewSource(seed)))
		b := BarabasiAlbertTriad(60, 3, 0.4, rand.New(rand.NewSource(seed)))
		return reflect.DeepEqual(a.Edges(), b.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: generated graphs are simple (no self loops representable, no
// duplicate edges) and respect the handshake lemma.
func TestPropertyGeneratedGraphsSimple(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := BarabasiAlbert(40, 2, rng)
		seen := make(map[graph.Edge]bool)
		ok := true
		g.EachEdge(func(e graph.Edge) bool {
			if e.U == e.V || seen[e] {
				ok = false
				return false
			}
			seen[e] = true
			return true
		})
		degSum := 0
		for _, d := range g.Degrees() {
			degSum += d
		}
		return ok && degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
