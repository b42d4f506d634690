package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// config sizes one workload. workloadConfig gives the benchmark's sizes;
// the tests shrink them.
type config struct {
	name      string
	sessions  int    // steady: live sessions; publish: pool bodies; durable: seeded sessions
	scale     int    // DBLPSim node count (steady, publish)
	targets   int    // sampled targets per graph (steady, publish)
	pattern   string // motif pattern of every session
	churn     int    // mutations per churn delta (steady)
	setupReps int    // set-ups per run; setup_s is their median
	memBudget string // durable: -mem-budget
	mix       [numOps]int
	// durableEvery picks the durable sessions whose replay also runs the
	// durable layer: session indices divisible by it.
	durableEvery int
}

func workloadConfig(name string) (config, error) {
	switch name {
	case "steady":
		return config{name: name, sessions: 64, scale: 2000, targets: 256, pattern: "Triangle", churn: 8, setupReps: 9}, nil
	case "publish":
		return config{name: name, sessions: 64, scale: 2000, targets: 512, pattern: "Pentagon", setupReps: 25}, nil
	case "durable":
		return config{name: name, sessions: 2000, pattern: "Triangle", setupReps: 3, memBudget: "2m",
			mix: [numOps]int{5, 60, 30, 5}, durableEvery: 8}, nil
	}
	return config{}, fmt.Errorf("unknown workload %q (want steady, publish or durable)", name)
}

// graphInput is one session's create request and the in-process mirror of
// what tppd builds from it.
type graphInput struct {
	body    []byte      // the exact POST /v1/sessions body
	pairs   [][2]string // edge list as sent, in order
	targets [][2]string
	pattern motif.Pattern
	// mirror is the graph under tppd's first-appearance numbering, with
	// its labels and targets; the churn generators run on it.
	mirror *mirrorGraph
}

// mirrorGraph is the graph tppd interns from a create body.
type mirrorGraph struct {
	g       *graph.Graph
	names   []string
	toID    map[string]graph.NodeID
	targets []graph.Edge
}

// buildMirror interns pairs exactly as tppd's graphFromPairs does: nodes
// numbered by first appearance, self loops and duplicates dropped.
func buildMirror(pairs, targets [][2]string) (*mirrorGraph, error) {
	m := &mirrorGraph{toID: make(map[string]graph.NodeID)}
	intern := func(s string) graph.NodeID {
		if id, ok := m.toID[s]; ok {
			return id
		}
		id := graph.NodeID(len(m.names))
		m.toID[s] = id
		m.names = append(m.names, s)
		return id
	}
	edges := make([]graph.Edge, 0, len(pairs))
	for _, p := range pairs {
		u, v := intern(p[0]), intern(p[1])
		if u != v {
			edges = append(edges, graph.NewEdge(u, v))
		}
	}
	m.g = graph.New(len(m.names))
	for _, e := range edges {
		m.g.AddEdgeE(e)
	}
	for _, t := range targets {
		u, ok1 := m.toID[t[0]]
		v, ok2 := m.toID[t[1]]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("target %v not in graph", t)
		}
		m.targets = append(m.targets, graph.NewEdge(u, v))
	}
	return m, nil
}

// createBody is the wire form of a session create. Every session asks for
// one enumeration worker, so each of the two clients' requests runs on one
// of the two cores instead of one protect taking both.
type createBody struct {
	Edges   [][2]string `json:"edges"`
	Targets [][2]string `json:"targets"`
	Pattern string      `json:"pattern"`
	Workers int         `json:"workers"`
}

// sessionWorkers is the enumeration parallelism every session asks for.
const sessionWorkers = 1

func newInput(pairs, targets [][2]string, pattern string) (*graphInput, error) {
	p, err := motif.ParsePattern(pattern)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(createBody{Edges: pairs, Targets: targets, Pattern: pattern, Workers: sessionWorkers})
	if err != nil {
		return nil, err
	}
	m, err := buildMirror(pairs, targets)
	if err != nil {
		return nil, err
	}
	return &graphInput{body: body, pairs: pairs, targets: targets, pattern: p, mirror: m}, nil
}

// mixSeed derives a nonzero per-purpose seed from the workload seed.
func mixSeed(seed int64, purpose, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(purpose)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

// Seed purposes, so no two random streams share a seed.
const (
	seedGraph = iota + 1
	seedTargets
	seedChurn
	seedClient
)

// dblpInput builds session i's DBLP-like create body: the graph's edges as
// "v<id>" label pairs in edge order, with sampled targets.
func dblpInput(cfg config, seed int64, i int) (*graphInput, error) {
	g := datasets.DBLPSim(cfg.scale, mixSeed(seed, seedGraph, i)).Graph
	targets := datasets.SampleTargets(g, cfg.targets, rand.New(rand.NewSource(mixSeed(seed, seedTargets, i))))
	label := func(v graph.NodeID) string { return "v" + strconv.Itoa(int(v)) }
	var pairs [][2]string
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]string{label(e.U), label(e.V)})
	}
	tp := make([][2]string, len(targets))
	for k, t := range targets {
		tp[k] = [2]string{label(t.U), label(t.V)}
	}
	return newInput(pairs, tp, cfg.pattern)
}

// ringNodes is the node count of the durable workload's small sessions.
const ringNodes = 24

func ringName(i int) string { return "n" + strconv.Itoa(i) }

// ringInput builds durable session i: a 24-node ring plus 12 random chords,
// protecting two ring links (the shape tppload seeds).
func ringInput(cfg config, seed int64, i int) (*graphInput, error) {
	rng := rand.New(rand.NewSource(mixSeed(seed, seedGraph, i)))
	const n = ringNodes
	var pairs [][2]string
	for k := 0; k < n; k++ {
		pairs = append(pairs, [2]string{ringName(k), ringName((k + 1) % n)})
	}
	have := make(map[[2]int]bool)
	for len(pairs) < n+12 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if b-a == 1 || (a == 0 && b == n-1) || have[[2]int{a, b}] {
			continue
		}
		have[[2]int{a, b}] = true
		pairs = append(pairs, [2]string{ringName(a), ringName(b)})
	}
	t1 := rng.Intn(n)
	t2 := (t1 + n/2) % n
	targets := [][2]string{{ringName(t1), ringName((t1 + 1) % n)}, {ringName(t2), ringName((t2 + 1) % n)}}
	return newInput(pairs, targets, cfg.pattern)
}

// deltaOp is one acknowledged-or-attempted session delta: the mutation in
// the session's node numbering plus the labels of the nodes it adds.
type deltaOp struct {
	d      dynamic.Delta
	labels []string
}

// deltaBody is the wire form of a session delta.
type deltaBody struct {
	Insert   [][2]string `json:"insert,omitempty"`
	Remove   [][2]string `json:"remove,omitempty"`
	AddNodes []string    `json:"add_nodes,omitempty"`
}

// churnDelta draws the next k-mutation edge churn batch for a session.
func churnDelta(c *gen.Churn, k int) deltaOp {
	ins, rem := c.Next(k)
	return deltaOp{d: dynamic.Delta{Insert: ins, Remove: rem}}
}

// attachDelta adds one fresh node wired to two distinct ring nodes; it
// always applies, whatever else the session has absorbed.
func attachDelta(rng *rand.Rand, label string, nodes int) deltaOp {
	a := rng.Intn(ringNodes)
	b := (a + 1 + rng.Intn(ringNodes-2)) % ringNodes
	nw := graph.NodeID(nodes)
	return deltaOp{
		d: dynamic.Delta{AddNodes: 1, Insert: []graph.Edge{
			{U: nw, V: graph.NodeID(a)}, {U: nw, V: graph.NodeID(b)},
		}},
		labels: []string{label},
	}
}

// wire renders a delta in the session's labels; names must already hold
// the labels of the nodes the delta adds.
func (op deltaOp) wire(names []string) ([]byte, error) {
	pairs := func(es []graph.Edge) [][2]string {
		out := make([][2]string, len(es))
		for i, e := range es {
			out[i] = [2]string{names[e.U], names[e.V]}
		}
		return out
	}
	return json.Marshal(deltaBody{Insert: pairs(op.d.Insert), Remove: pairs(op.d.Remove), AddNodes: op.labels})
}
