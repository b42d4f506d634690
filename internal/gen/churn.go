package gen

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Churn is a seeded stream of graph mutations: a reproducible source of
// insert/remove batches for driving dynamic-graph workloads (evolving
// sessions, incremental-index benchmarks, churn examples). It owns a
// private evolving copy of the seed graph, so each batch is valid against
// the state every previous batch produced: insertions are absent, removals
// are present, and protected edges are never touched.
type Churn struct {
	g         *graph.Graph
	rng       *rand.Rand
	pInsert   float64
	protected map[graph.Edge]struct{}
	pool      []graph.Edge // removable edges of the current graph
}

// NewChurn starts a churn stream over a clone of g (the input graph is
// never mutated). protected edges — typically the TPP target links — are
// excluded from removal and insertion. pInsert is the per-mutation
// probability of an insertion (the rest are removals); 0.5 keeps the edge
// count roughly stationary. All randomness comes from rng, so the stream
// is reproducible from a seed.
func NewChurn(g *graph.Graph, protected []graph.Edge, pInsert float64, rng *rand.Rand) *Churn {
	c := &Churn{
		g:         g.Clone(),
		rng:       rng,
		pInsert:   pInsert,
		protected: make(map[graph.Edge]struct{}, len(protected)),
	}
	for _, e := range protected {
		c.protected[graph.NewEdge(e.U, e.V)] = struct{}{}
	}
	for _, e := range c.g.Edges() {
		if _, ok := c.protected[e]; !ok {
			c.pool = append(c.pool, e)
		}
	}
	return c
}

// Graph returns the stream's current graph: the seed graph with every batch
// emitted so far applied. Callers must treat it as read-only.
func (c *Churn) Graph() *graph.Graph { return c.g }

// Next produces the next batch of up to k mutations, applies them to the
// stream's own graph, and returns them sorted canonically. An edge is
// touched at most once per batch, so (insert, remove) always forms a
// conflict-free dynamic delta. Fewer than k mutations are returned only
// when sampling stalls (e.g. a near-complete graph rejects insertions).
func (c *Churn) Next(k int) (insert, remove []graph.Edge) {
	touched := make(map[graph.Edge]struct{}, k)
	n := c.g.NumNodes()
	for made := 0; made < k; made++ {
		if c.rng.Float64() < c.pInsert || len(c.pool) == 0 {
			// Insertion: a uniform absent pair, bounded rejection so dense
			// graphs cannot stall the stream forever.
			for tries := 0; tries < 64; tries++ {
				u := graph.NodeID(c.rng.Intn(n))
				v := graph.NodeID(c.rng.Intn(n))
				if u == v {
					continue
				}
				e := graph.NewEdge(u, v)
				if _, ok := touched[e]; ok {
					continue
				}
				if _, ok := c.protected[e]; ok {
					continue
				}
				if c.g.HasEdgeE(e) {
					continue
				}
				c.g.AddEdgeE(e)
				c.pool = append(c.pool, e)
				insert = append(insert, e)
				touched[e] = struct{}{}
				break
			}
		} else {
			// Removal: a uniform pool edge not already touched this batch.
			for tries := 0; tries < 64 && len(c.pool) > 0; tries++ {
				i := c.rng.Intn(len(c.pool))
				e := c.pool[i]
				if _, ok := touched[e]; ok {
					continue
				}
				c.pool[i] = c.pool[len(c.pool)-1]
				c.pool = c.pool[:len(c.pool)-1]
				c.g.RemoveEdgeE(e)
				remove = append(remove, e)
				touched[e] = struct{}{}
				break
			}
		}
	}
	graph.SortEdges(insert)
	graph.SortEdges(remove)
	return insert, remove
}

// Mutation is one batch of full session mutations emitted by a
// MutationChurn: edge churn plus node arrivals/departures and target
// add/drop. It is field-identical to dynamic.Delta by construction —
// convert with dynamic.Delta(m) — but defined here so gen stays free of
// the dynamic package (and therefore importable from every in-package test
// in the repository). The dynamic package's tests pin the convertibility.
type Mutation struct {
	Insert []graph.Edge
	Remove []graph.Edge

	AddNodes    int
	RemoveNodes []graph.NodeID

	AddTargets  []graph.Edge
	DropTargets []graph.Edge
}

// ChurnRates weights the mutation mix of a MutationChurn stream: each
// emitted event is drawn with probability proportional to its weight.
// Zero-weight events never occur; an all-zero rate set emits empty batches.
type ChurnRates struct {
	EdgeInsert, EdgeRemove float64
	NodeArrive, NodeDepart float64
	TargetAdd, TargetDrop  float64
}

// DefaultChurnRates is an edge-dominated mix with steady node and target
// churn — roughly what a long-running social-graph session absorbs.
func DefaultChurnRates() ChurnRates {
	return ChurnRates{
		EdgeInsert: 0.35, EdgeRemove: 0.35,
		NodeArrive: 0.08, NodeDepart: 0.08,
		TargetAdd: 0.07, TargetDrop: 0.07,
	}
}

func (r ChurnRates) total() float64 {
	return r.EdgeInsert + r.EdgeRemove + r.NodeArrive + r.NodeDepart + r.TargetAdd + r.TargetDrop
}

// MutationChurn is the full-session analogue of Churn: a seeded,
// reproducible stream of Mutation batches — edge insert/remove, node
// arrival/departure, target add/drop — each valid against the state every
// previous batch produced. It owns a private evolving copy of the seed
// graph (original-style: target links present as edges) and of the target
// list, mirroring exactly how dynamic.Delta mutates a session; a departure
// emits the node's remaining incident edges as removals so the node ends
// the batch isolated, a drop never empties the target list, and no edge is
// touched twice in one batch.
type MutationChurn struct {
	g       *graph.Graph
	targets []graph.Edge
	rates   ChurnRates
	rng     *rand.Rand
	pool    []graph.Edge // removable (non-target) edges of the current graph
}

// NewMutationChurn starts a mutation stream over clones of g and targets
// (neither input is mutated). The graph must be original-style — every
// target present as an edge — which is what tpp sessions hold.
func NewMutationChurn(g *graph.Graph, targets []graph.Edge, rates ChurnRates, rng *rand.Rand) *MutationChurn {
	c := &MutationChurn{
		g:       g.Clone(),
		targets: slices.Clone(targets),
		rates:   rates,
		rng:     rng,
	}
	for i, t := range c.targets {
		c.targets[i] = graph.NewEdge(t.U, t.V)
	}
	c.rebuildPool()
	return c
}

// Graph returns the stream's current graph (read-only for callers).
func (c *MutationChurn) Graph() *graph.Graph { return c.g }

// Targets returns a copy of the stream's current target list.
func (c *MutationChurn) Targets() []graph.Edge { return slices.Clone(c.targets) }

// rebuildPool re-derives the removable-edge pool from the graph. Unlike
// Churn's incremental pool, a full rebuild per batch is deliberate: node
// departures rename edges (swap-with-last), which would otherwise require
// re-keying pool entries against the remap — O(graph) per batch is the
// simple, rename-proof choice for a generator that only runs in untimed
// test and benchmark setup. The sweep merges the graph's canonical edge
// order with the sorted target keys rather than hashing every edge, so the
// O(graph) is one pass of comparisons.
func (c *MutationChurn) rebuildPool() {
	keys := make([]uint64, len(c.targets))
	for i, t := range c.targets {
		keys[i] = graph.PackEdge(t)
	}
	slices.Sort(keys)
	c.pool = c.pool[:0]
	k := 0
	c.g.EachEdge(func(e graph.Edge) bool {
		key := graph.PackEdge(e)
		for k < len(keys) && keys[k] < key {
			k++
		}
		if k == len(keys) || keys[k] != key {
			c.pool = append(c.pool, e)
		}
		return true
	})
}

// Next produces the next batch of up to k mutation events, applies it to
// the stream's own graph and target list, and returns it with every list
// sorted canonically — ready to convert to a dynamic.Delta and hand to a
// session holding the same state. Fewer than k events are emitted when
// sampling stalls (e.g. no droppable target remains this batch).
func (c *MutationChurn) Next(k int) Mutation {
	var m Mutation
	n := c.g.NumNodes()
	tset := make(map[graph.Edge]struct{}, len(c.targets))
	for _, t := range c.targets {
		tset[t] = struct{}{}
	}
	touched := make(map[graph.Edge]struct{}, k) // edges referenced this batch
	departed := make(map[graph.NodeID]struct{})
	dropped := make(map[graph.Edge]struct{})
	insTouches := func(x graph.NodeID) bool {
		for _, e := range m.Insert {
			if e.Has(x) {
				return true
			}
		}
		for _, e := range m.AddTargets {
			if e.Has(x) {
				return true
			}
		}
		return false
	}
	// samplePair draws an absent, untouched, non-target pair over the live
	// universe (arrivals included, departures excluded), or ok=false when
	// bounded rejection stalls.
	samplePair := func() (graph.Edge, bool) {
		for tries := 0; tries < 64; tries++ {
			u := graph.NodeID(c.rng.Intn(n + m.AddNodes))
			v := graph.NodeID(c.rng.Intn(n + m.AddNodes))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if _, ok := touched[e]; ok {
				continue
			}
			if _, ok := tset[e]; ok {
				continue
			}
			if _, ok := departed[e.U]; ok {
				continue
			}
			if _, ok := departed[e.V]; ok {
				continue
			}
			if int(e.V) < n && c.g.HasEdgeE(e) {
				continue
			}
			return e, true
		}
		return graph.Edge{}, false
	}

	total := c.rates.total()
	for made := 0; made < k && total > 0; made++ {
		roll := c.rng.Float64() * total
		r := c.rates
		switch {
		case roll < r.EdgeInsert:
			if e, ok := samplePair(); ok {
				m.Insert = append(m.Insert, e)
				touched[e] = struct{}{}
			}
		case roll < r.EdgeInsert+r.EdgeRemove:
			for tries := 0; tries < 64 && len(c.pool) > 0; tries++ {
				e := c.pool[c.rng.Intn(len(c.pool))]
				if _, ok := touched[e]; ok {
					continue
				}
				m.Remove = append(m.Remove, e)
				touched[e] = struct{}{}
				break
			}
		case roll < r.EdgeInsert+r.EdgeRemove+r.NodeArrive:
			m.AddNodes++
		case roll < r.EdgeInsert+r.EdgeRemove+r.NodeArrive+r.NodeDepart:
			// A departure takes the node's surviving incident edges with it
			// (they join Remove), so target endpoints and nodes already tied
			// into this batch's insertions are skipped.
			for tries := 0; tries < 16; tries++ {
				x := graph.NodeID(c.rng.Intn(n))
				if _, ok := departed[x]; ok {
					continue
				}
				if insTouches(x) {
					continue
				}
				isTargetEnd := false
				for _, t := range c.targets {
					if t.Has(x) {
						isTargetEnd = true
						break
					}
				}
				if isTargetEnd {
					continue
				}
				for _, w := range c.g.NeighborsView(x) {
					e := graph.NewEdge(x, w)
					if _, ok := touched[e]; !ok {
						m.Remove = append(m.Remove, e)
						touched[e] = struct{}{}
					}
				}
				m.RemoveNodes = append(m.RemoveNodes, x)
				departed[x] = struct{}{}
				break
			}
		case roll < r.EdgeInsert+r.EdgeRemove+r.NodeArrive+r.NodeDepart+r.TargetAdd:
			if e, ok := samplePair(); ok {
				m.AddTargets = append(m.AddTargets, e)
				touched[e] = struct{}{}
			}
		default:
			if len(c.targets)-len(dropped)+len(m.AddTargets) <= 1 {
				continue // never empty the target list
			}
			for tries := 0; tries < 16; tries++ {
				t := c.targets[c.rng.Intn(len(c.targets))]
				if _, ok := dropped[t]; ok {
					continue
				}
				ok := true
				for _, x := range m.RemoveNodes {
					if t.Has(x) {
						ok = false // departures skipped target endpoints; keep it that way
						break
					}
				}
				if !ok {
					continue
				}
				m.DropTargets = append(m.DropTargets, t)
				dropped[t] = struct{}{}
				touched[t] = struct{}{}
				break
			}
		}
	}
	graph.SortEdges(m.Insert)
	graph.SortEdges(m.Remove)
	graph.SortEdges(m.AddTargets)
	graph.SortEdges(m.DropTargets)
	slices.Sort(m.RemoveNodes)

	// Advance the stream's own state: dynamic.Delta's ApplyToGraph plus the
	// target-link edits (the stream's graph keeps its target links), then
	// ApplyTargets (kept dependency-free; the tests of this package and of
	// the dynamic package pin the two in lockstep).
	for i := 0; i < m.AddNodes; i++ {
		c.g.AddNode()
	}
	for _, e := range m.Remove {
		c.g.RemoveEdgeE(e)
	}
	for _, e := range m.Insert {
		c.g.AddEdgeE(e)
	}
	for _, t := range m.DropTargets {
		c.g.RemoveEdgeE(t)
	}
	for _, t := range m.AddTargets {
		c.g.AddEdgeE(t)
	}
	remap := c.g.RemoveNodes(m.RemoveNodes)
	rename := func(e graph.Edge) graph.Edge {
		if remap == nil {
			return e
		}
		return graph.NewEdge(remap[e.U], remap[e.V])
	}
	newTargets := c.targets[:0]
	for _, t := range c.targets {
		if _, ok := dropped[t]; ok {
			continue
		}
		newTargets = append(newTargets, rename(t))
	}
	for _, t := range m.AddTargets {
		newTargets = append(newTargets, rename(t))
	}
	c.targets = newTargets
	c.rebuildPool()
	return m
}
