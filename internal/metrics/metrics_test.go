package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) < tol }

// cycle returns the cycle graph C_n (n >= 3).
func cycle(n int) *graph.Graph {
	g := gen.Path(n)
	g.AddEdge(0, graph.NodeID(n-1))
	return g
}

func TestAveragePathLengthPath(t *testing.T) {
	// Path 0-1-2-3: distances 1,2,3,1,2,1 → mean 10/6.
	g := gen.Path(4)
	if got := AveragePathLength(g); !almostEqual(got, 10.0/6, 1e-12) {
		t.Fatalf("l = %v, want %v", got, 10.0/6)
	}
}

func TestAveragePathLengthComplete(t *testing.T) {
	if got := AveragePathLength(gen.Complete(6)); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("l(K6) = %v, want 1", got)
	}
}

func TestAveragePathLengthDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	// Only connected pairs count: both at distance 1.
	if got := AveragePathLength(g); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("l = %v, want 1", got)
	}
	if got := AveragePathLength(graph.New(1)); got != 0 {
		t.Fatalf("l of trivial graph = %v, want 0", got)
	}
}

func TestClusteringCoefficientKnown(t *testing.T) {
	if got := ClusteringCoefficient(gen.Complete(5)); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("clust(K5) = %v, want 1", got)
	}
	if got := ClusteringCoefficient(gen.Star(6)); got != 0 {
		t.Fatalf("clust(star) = %v, want 0", got)
	}
	if got := ClusteringCoefficient(cycle(6)); got != 0 {
		t.Fatalf("clust(C6) = %v, want 0", got)
	}
	// Triangle with one pendant: nodes 0,1,2 clique + 3 hanging off 0.
	g := gen.Complete(3)
	g.AddNode()
	g.AddEdge(0, 3)
	// clust: node0 = 1/3 (one closed pair of three), nodes 1,2 = 1, node3 deg 1 → 0.
	want := (1.0/3 + 1 + 1 + 0) / 4
	if got := ClusteringCoefficient(g); !almostEqual(got, want, 1e-12) {
		t.Fatalf("clust = %v, want %v", got, want)
	}
}

func TestAssortativityStarNegative(t *testing.T) {
	// Stars are maximally disassortative: r = -1.
	if got := Assortativity(gen.Star(8)); !almostEqual(got, -1, 1e-9) {
		t.Fatalf("r(star) = %v, want -1", got)
	}
}

func TestAssortativityRegularZero(t *testing.T) {
	// Degree-regular graphs have zero degree variance at edge ends.
	if got := Assortativity(cycle(10)); got != 0 {
		t.Fatalf("r(C10) = %v, want 0", got)
	}
	if got := Assortativity(gen.Complete(5)); got != 0 {
		t.Fatalf("r(K5) = %v, want 0", got)
	}
}

func TestCoreNumbersKnown(t *testing.T) {
	// K5: every node has core number 4.
	for v, c := range CoreNumbers(gen.Complete(5)) {
		if c != 4 {
			t.Fatalf("core(K5, %d) = %d, want 4", v, c)
		}
	}
	// Path: all cores 1.
	for v, c := range CoreNumbers(gen.Path(5)) {
		if c != 1 {
			t.Fatalf("core(path, %d) = %d, want 1", v, c)
		}
	}
	// Clique + pendant: pendant has core 1, clique nodes core 3.
	g := gen.Complete(4)
	g.AddNode()
	g.AddEdge(0, 4)
	cores := CoreNumbers(g)
	if cores[4] != 1 {
		t.Fatalf("pendant core = %d, want 1", cores[4])
	}
	for v := 0; v < 4; v++ {
		if cores[v] != 3 {
			t.Fatalf("clique core = %d, want 3", cores[v])
		}
	}
	if got := AverageCoreNumber(g); !almostEqual(got, (3*4+1)/5.0, 1e-12) {
		t.Fatalf("cn = %v", got)
	}
}

func TestTriangleCountPerNode(t *testing.T) {
	g := gen.Complete(4)
	for v := 0; v < 4; v++ {
		if got := TriangleCount(g, graph.NodeID(v)); got != 3 {
			t.Fatalf("triangles at %d = %d, want 3", v, got)
		}
	}
}

func TestLaplacianEigenvaluesComplete(t *testing.T) {
	// L(K_n) has eigenvalues {0, n, n, ..., n}: both top values are n.
	rng := rand.New(rand.NewSource(3))
	vals := LaplacianTopEigenvalues(gen.Complete(6), 2, rng)
	if !almostEqual(vals[0], 6, 1e-6) || !almostEqual(vals[1], 6, 1e-6) {
		t.Fatalf("top eigenvalues of K6 Laplacian = %v, want [6 6]", vals)
	}
}

func TestLaplacianEigenvaluesStar(t *testing.T) {
	// L(K_{1,n-1}) has eigenvalues {0, 1 (n-2 times), n}: top two are n, 1.
	rng := rand.New(rand.NewSource(4))
	vals := LaplacianTopEigenvalues(gen.Star(6), 2, rng)
	if !almostEqual(vals[0], 6, 1e-6) || !almostEqual(vals[1], 1, 1e-5) {
		t.Fatalf("top eigenvalues of star Laplacian = %v, want [6 1]", vals)
	}
	if mu := SecondLargestLaplacianEigenvalue(gen.Star(6), rand.New(rand.NewSource(5))); !almostEqual(mu, 1, 1e-5) {
		t.Fatalf("µ(star) = %v, want 1", mu)
	}
}

func TestLaplacianEigenvaluesCycle(t *testing.T) {
	// L(C_n) has eigenvalues 2 − 2cos(2πk/n). For C6: largest 4 (k=3),
	// second largest 3 (k=2,4).
	rng := rand.New(rand.NewSource(11))
	vals := LaplacianTopEigenvalues(cycle(6), 2, rng)
	if !almostEqual(vals[0], 4, 1e-6) || !almostEqual(vals[1], 3, 1e-5) {
		t.Fatalf("C6 Laplacian top eigenvalues = %v, want [4 3]", vals)
	}
}

func TestLaplacianEigenvaluePath2(t *testing.T) {
	// P2 (single edge): eigenvalues {0, 2}.
	rng := rand.New(rand.NewSource(6))
	vals := LaplacianTopEigenvalues(gen.Path(2), 2, rng)
	if !almostEqual(vals[0], 2, 1e-8) || !almostEqual(vals[1], 0, 1e-6) {
		t.Fatalf("P2 eigenvalues = %v, want [2 0]", vals)
	}
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	// Two K5 cliques joined by a single bridge: LP should find exactly the
	// two cliques.
	g := graph.New(10)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			g.AddEdge(graph.NodeID(u+5), graph.NodeID(v+5))
		}
	}
	g.AddEdge(4, 5)
	comm := LabelPropagation(g, rand.New(rand.NewSource(7)))
	for v := 1; v < 5; v++ {
		if comm[v] != comm[0] {
			t.Fatalf("left clique split: %v", comm)
		}
	}
	for v := 6; v < 10; v++ {
		if comm[v] != comm[5] {
			t.Fatalf("right clique split: %v", comm)
		}
	}
	if comm[0] == comm[5] {
		t.Fatalf("cliques merged: %v", comm)
	}
	q := Modularity(g, comm)
	if q < 0.3 {
		t.Fatalf("modularity %v too low for a clear 2-community graph", q)
	}
}

func TestModularityBounds(t *testing.T) {
	// One community covering everything has Q = 0... actually
	// Q = 1 - 1 = 0 for the trivial partition of any graph: intra = m,
	// degree fraction = 1.
	g := gen.Complete(5)
	comm := make([]int, 5)
	if q := Modularity(g, comm); !almostEqual(q, 0, 1e-12) {
		t.Fatalf("trivial partition Q = %v, want 0", q)
	}
	if q := Modularity(graph.New(3), []int{0, 1, 2}); q != 0 {
		t.Fatalf("empty graph Q = %v, want 0", q)
	}
}

func TestUtilityLossRatio(t *testing.T) {
	if got := UtilityLossRatio(2, 1.5); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("ulr = %v, want 0.25", got)
	}
	if got := UtilityLossRatio(0, 0); got != 0 {
		t.Fatalf("ulr(0,0) = %v, want 0", got)
	}
	if got := UtilityLossRatio(0, 1); !math.IsInf(got, 1) {
		t.Fatalf("ulr(0,1) = %v, want +Inf", got)
	}
	if got := UtilityLossRatio(-2, -1); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("ulr negative baseline = %v, want 0.5", got)
	}
}

func TestComputeAndAverageLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.BarabasiAlbertTriad(120, 3, 0.4, rng)
	orig := Compute(g, AllMetrics, rand.New(rand.NewSource(9)))
	if len(orig) != len(AllMetrics) {
		t.Fatalf("computed %d metrics, want %d", len(orig), len(AllMetrics))
	}
	// Identical graphs → zero loss (up to float summation order inside the
	// eigensolver, which follows Go's randomized map iteration).
	same := Compute(g, AllMetrics, rand.New(rand.NewSource(9)))
	per, mean := AverageUtilityLoss(orig, same)
	if mean > 1e-9 {
		t.Fatalf("self-loss = %v (per metric %v)", mean, per)
	}
	// Perturbed graph → small positive loss.
	h := g.Clone()
	edges := h.Edges()
	for i := 0; i < 10; i++ {
		h.RemoveEdgeE(edges[i*7])
	}
	rel := Compute(h, AllMetrics, rand.New(rand.NewSource(9)))
	_, mean2 := AverageUtilityLoss(orig, rel)
	if mean2 <= 0 || mean2 > 1 {
		t.Fatalf("perturbed loss = %v outside (0,1]", mean2)
	}
}

// Property: every metric is invariant under graph cloning, and deleting an
// edge never increases the core-number sum.
func TestPropertyCoreMonotoneUnderDeletion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(40, 3, 0.4, rng)
		sum := func(gr *graph.Graph) int {
			s := 0
			for _, c := range CoreNumbers(gr) {
				s += c
			}
			return s
		}
		before := sum(g)
		edges := g.Edges()
		g.RemoveEdgeE(edges[rng.Intn(len(edges))])
		return sum(g) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: clustering coefficient lies in [0,1]; assortativity in [-1,1].
func TestPropertyMetricRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyiGNM(30, 60, rng)
		c := ClusteringCoefficient(g)
		r := Assortativity(g)
		return c >= 0 && c <= 1 && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
