package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

func TestChurnBatchesAreValidDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := BarabasiAlbertTriad(120, 3, 0.4, rng)
	protected := seed.Edges()[:5]
	mirror := seed.Clone()

	c := NewChurn(seed, protected, 0.5, rng)
	edgesBefore := seed.NumEdges()
	pset := make(map[graph.Edge]struct{})
	for _, e := range protected {
		pset[e] = struct{}{}
	}
	for batch := 0; batch < 30; batch++ {
		ins, rem := c.Next(1 + rng.Intn(8))
		touched := make(map[graph.Edge]struct{})
		for _, e := range ins {
			if _, ok := pset[e]; ok {
				t.Fatalf("batch %d: inserted protected edge %v", batch, e)
			}
			if _, ok := touched[e]; ok {
				t.Fatalf("batch %d: edge %v touched twice", batch, e)
			}
			touched[e] = struct{}{}
			if mirror.HasEdgeE(e) {
				t.Fatalf("batch %d: inserted edge %v already present", batch, e)
			}
			mirror.AddEdgeE(e)
		}
		for _, e := range rem {
			if _, ok := pset[e]; ok {
				t.Fatalf("batch %d: removed protected edge %v", batch, e)
			}
			if _, ok := touched[e]; ok {
				t.Fatalf("batch %d: edge %v touched twice", batch, e)
			}
			touched[e] = struct{}{}
			if !mirror.RemoveEdgeE(e) {
				t.Fatalf("batch %d: removed absent edge %v", batch, e)
			}
		}
		if mirror.NumEdges() != c.Graph().NumEdges() {
			t.Fatalf("batch %d: mirror has %d edges, churn graph %d", batch, mirror.NumEdges(), c.Graph().NumEdges())
		}
	}
	if seed.NumEdges() != edgesBefore {
		t.Fatalf("seed graph mutated: %d edges, want %d", seed.NumEdges(), edgesBefore)
	}
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	build := func() ([]graph.Edge, []graph.Edge) {
		rng := rand.New(rand.NewSource(23))
		g := BarabasiAlbertTriad(80, 3, 0.3, rng)
		c := NewChurn(g, nil, 0.6, rng)
		var allIns, allRem []graph.Edge
		for i := 0; i < 10; i++ {
			ins, rem := c.Next(5)
			allIns = append(allIns, ins...)
			allRem = append(allRem, rem...)
		}
		return allIns, allRem
	}
	i1, r1 := build()
	i2, r2 := build()
	if len(i1) != len(i2) || len(r1) != len(r2) {
		t.Fatalf("stream lengths differ: (%d,%d) vs (%d,%d)", len(i1), len(r1), len(i2), len(r2))
	}
	for i := range i1 {
		if i1[i] != i2[i] {
			t.Fatalf("insertion %d differs: %v vs %v", i, i1[i], i2[i])
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("removal %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

// TestMutationChurnBatchesAreValidDeltas pins the generator's core
// contract: every emitted batch, converted to a dynamic.Delta, must
// canonicalize and validate against an externally maintained mirror of the
// stream's state — and applying it to that mirror must land exactly where
// the generator's private state landed (graph size and target list), so
// consecutive batches stay valid too.
func TestMutationChurnBatchesAreValidDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := BarabasiAlbertTriad(120, 3, 0.4, rng)
	targets := seed.Edges()[:6]
	// The mirror is a session's view: the phase-1 graph plus the target list.
	mirror := seed.Clone()
	mirror.RemoveEdges(targets)
	mirrorTargets := append([]graph.Edge(nil), targets...)

	c := NewMutationChurn(seed, targets, DefaultChurnRates(), rng)
	edgesBefore := seed.NumEdges()
	var sawNodes, sawTargets int
	for batch := 0; batch < 40; batch++ {
		m := c.Next(1 + rng.Intn(8))
		d, err := dynamic.Delta(m).Canonicalize()
		if err != nil {
			t.Fatalf("batch %d: canonicalize %+v: %v", batch, m, err)
		}
		if err := d.Validate(mirror, mirrorTargets); err != nil {
			t.Fatalf("batch %d: validate: %v", batch, err)
		}
		remap := d.ApplyToGraph(mirror)
		mirrorTargets = d.ApplyTargets(mirrorTargets, remap)
		sawNodes += d.AddNodes + len(d.RemoveNodes)
		sawTargets += len(d.AddTargets) + len(d.DropTargets)

		if mirror.NumNodes() != c.Graph().NumNodes() || mirror.NumEdges()+len(mirrorTargets) != c.Graph().NumEdges() {
			t.Fatalf("batch %d: mirror %v plus %d targets, churn graph %v", batch, mirror, len(mirrorTargets), c.Graph())
		}
		ct := c.Targets()
		if len(ct) != len(mirrorTargets) {
			t.Fatalf("batch %d: churn has %d targets, mirror %d", batch, len(ct), len(mirrorTargets))
		}
		for i := range ct {
			if ct[i] != mirrorTargets[i] {
				t.Fatalf("batch %d: target %d = %v, mirror has %v", batch, i, ct[i], mirrorTargets[i])
			}
		}
		if len(ct) == 0 {
			t.Fatalf("batch %d: target list emptied", batch)
		}
	}
	if sawNodes == 0 || sawTargets == 0 {
		t.Fatalf("stream produced %d node and %d target mutations; want both > 0 (tune seed)", sawNodes, sawTargets)
	}
	if seed.NumEdges() != edgesBefore {
		t.Fatalf("seed graph mutated: %d edges, want %d", seed.NumEdges(), edgesBefore)
	}
}

func TestMutationChurnDeterministicPerSeed(t *testing.T) {
	build := func() []Mutation {
		rng := rand.New(rand.NewSource(29))
		g := BarabasiAlbertTriad(90, 3, 0.3, rng)
		targets := g.Edges()[:4]
		c := NewMutationChurn(g, targets, DefaultChurnRates(), rng)
		out := make([]Mutation, 12)
		for i := range out {
			out[i] = c.Next(6)
		}
		return out
	}
	b1, b2 := build(), build()
	for i := range b1 {
		if !reflect.DeepEqual(b1[i], b2[i]) {
			t.Fatalf("batch %d differs across identical seeds:\n%+v\nvs\n%+v", i, b1[i], b2[i])
		}
	}
}
