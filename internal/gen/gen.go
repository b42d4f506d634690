// Package gen builds random and deterministic graph families.
//
// All stochastic generators take an explicit *rand.Rand so experiments are
// reproducible from a seed; none of them touch global randomness. The
// families implemented here cover everything the TPP paper's evaluation
// rests on: scale-free graphs with tunable clustering (the stand-in for the
// Arenas-email and DBLP datasets), plus classical null models and
// deterministic families used in tests.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyiGNM samples a uniform random simple graph with n nodes and
// exactly m edges. It panics if m exceeds the number of node pairs.
func ErdosRenyiGNM(n, m int, rng *rand.Rand) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("gen: G(n,m) with m=%d > max %d for n=%d", m, maxM, n))
	}
	g := graph.New(n)
	for g.NumEdges() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// BarabasiAlbert grows a scale-free graph by preferential attachment: start
// from a clique on m0 = m+1 nodes, then attach each new node to m distinct
// existing nodes chosen proportionally to degree.
func BarabasiAlbert(n, m int, rng *rand.Rand) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: BarabasiAlbert requires 1 <= m < n (n=%d m=%d)", n, m))
	}
	g := graph.New(n)
	// repeated-nodes list: node i appears deg(i) times; uniform sampling
	// from it is preferential attachment.
	var targets []graph.NodeID
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			targets = append(targets, graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := m + 1; u < n; u++ {
		// Collect m distinct attachment points in pick order — a slice,
		// not a set, so the construction is deterministic per seed.
		chosen := make([]graph.NodeID, 0, m)
		for len(chosen) < m {
			w := targets[rng.Intn(len(targets))]
			dup := false
			for _, c := range chosen {
				if c == w {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, w)
			}
		}
		for _, w := range chosen {
			g.AddEdge(graph.NodeID(u), w)
			targets = append(targets, graph.NodeID(u), w)
		}
	}
	return g
}

// BarabasiAlbertTriad is the Holme–Kim model: preferential attachment with
// probability pt of triad formation per subsequent link, yielding the high
// clustering observed in real social graphs (the TPP paper's datasets).
func BarabasiAlbertTriad(n, m int, pt float64, rng *rand.Rand) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: BarabasiAlbertTriad requires 1 <= m < n (n=%d m=%d)", n, m))
	}
	g := graph.New(n)
	var targets []graph.NodeID
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			targets = append(targets, graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := m + 1; u < n; u++ {
		nu := graph.NodeID(u)
		var last graph.NodeID = -1
		added := 0
		for added < m {
			var w graph.NodeID = -1
			if last >= 0 && rng.Float64() < pt {
				// triad step: connect to a random neighbor of the last
				// preferentially attached node. The borrowed view is read
				// before the AddEdge below invalidates it.
				nbrs := g.NeighborsView(last)
				if len(nbrs) > 0 {
					cand := nbrs[rng.Intn(len(nbrs))]
					if cand != nu && !g.HasEdge(nu, cand) {
						w = cand
					}
				}
			}
			if w < 0 {
				cand := targets[rng.Intn(len(targets))]
				if cand == nu || g.HasEdge(nu, cand) {
					continue
				}
				w = cand
				last = w
			}
			g.AddEdge(nu, w)
			targets = append(targets, nu, w)
			added++
		}
	}
	return g
}

// WattsStrogatz builds a small-world ring lattice on n nodes where each node
// connects to its k nearest neighbors (k even), then rewires each edge with
// probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *graph.Graph {
	if k%2 != 0 || k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz requires even k < n (n=%d k=%d)", n, k))
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID((u+j)%n))
		}
	}
	if beta <= 0 {
		return g
	}
	for _, e := range g.Edges() {
		if rng.Float64() >= beta {
			continue
		}
		// rewire the far endpoint of e to a uniform non-neighbor of e.U.
		for tries := 0; tries < 32; tries++ {
			w := graph.NodeID(rng.Intn(n))
			if w == e.U || g.HasEdge(e.U, w) {
				continue
			}
			g.RemoveEdgeE(e)
			g.AddEdge(e.U, w)
			break
		}
	}
	return g
}

// ConfigurationModel samples a simple graph whose degree sequence
// approximates degs by random stub matching; stubs producing self loops or
// multi-edges are discarded, so low-degree tails are exact and hubs may
// lose a few stubs (standard erased configuration model).
func ConfigurationModel(degs []int, rng *rand.Rand) *graph.Graph {
	var stubs []graph.NodeID
	for n, d := range degs {
		if d < 0 {
			panic(fmt.Sprintf("gen: negative degree %d for node %d", d, n))
		}
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.NodeID(n))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New(len(degs))
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// PowerLawDegrees draws n degrees from a discrete power law with exponent
// gamma and minimum degree dmin, capped at dcap. The sum is made even so a
// configuration model can realise it.
func PowerLawDegrees(n int, gamma float64, dmin, dcap int, rng *rand.Rand) []int {
	if dmin < 1 || dcap < dmin {
		panic("gen: PowerLawDegrees requires 1 <= dmin <= dcap")
	}
	degs := make([]int, n)
	sum := 0
	for i := range degs {
		// inverse-CDF sampling of a truncated continuous power law,
		// rounded down to an integer degree.
		u := rng.Float64()
		a, b := float64(dmin), float64(dcap)+1
		x := math.Pow(math.Pow(a, 1-gamma)+u*(math.Pow(b, 1-gamma)-math.Pow(a, 1-gamma)), 1/(1-gamma))
		d := int(x)
		if d < dmin {
			d = dmin
		}
		if d > dcap {
			d = dcap
		}
		degs[i] = d
		sum += d
	}
	if sum%2 == 1 {
		degs[0]++
	}
	return degs
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v))
	}
	return g
}

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	return g
}
