// Package motif implements the subgraph-pattern machinery of the TPP paper:
// the Triangle, Rectangle and RecTri motifs (paper Fig. 1), enumeration of
// target subgraphs W_t for each target link, and similarity counting
// s(P, t) = |surviving target subgraphs for t|.
//
// Two evaluation paths are provided, mirroring the paper's naive and
// scalable algorithm families:
//
//   - Count / CountAll recompute similarities from the graph on demand
//     (used by the plain SGB/CT/WT greedy algorithms, whose running time
//     Figs. 5–6 measure);
//   - Index pre-enumerates every instance once and maintains per-edge
//     marginal gains incrementally under deletions (used by the scalable
//     -R variants and the indexed engine).
package motif

import (
	"fmt"

	"repro/internal/graph"
)

// Pattern selects which subgraph motif defines a target subgraph.
type Pattern int

const (
	// Triangle (paper Fig. 1a): a 2-path u–w–v completing target (u,v).
	Triangle Pattern = iota
	// Rectangle (paper Fig. 1b): a 3-path u–a–b–v completing target (u,v).
	Rectangle
	// RecTri (paper Fig. 1c): a 2-path u–w–v together with a 3-path that
	// shares the intermediate node w with it.
	RecTri
	// Pentagon extends the family with a 4-path u–a–b–c–v (five distinct
	// nodes): the motif completing (u, v) into a 5-cycle. The paper states
	// TPP is "general and can be used for any subgraph pattern"; Pentagon
	// exercises that generality beyond the three motifs it evaluates.
	Pentagon
)

// Patterns lists the patterns evaluated in the paper, in paper order.
var Patterns = []Pattern{Triangle, Rectangle, RecTri}

// AllPatterns additionally includes the Pentagon extension.
var AllPatterns = []Pattern{Triangle, Rectangle, RecTri, Pentagon}

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case Triangle:
		return "Triangle"
	case Rectangle:
		return "Rectangle"
	case RecTri:
		return "RecTri"
	case Pentagon:
		return "Pentagon"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern converts a (case-sensitive) pattern name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "Triangle", "triangle":
		return Triangle, nil
	case "Rectangle", "rectangle":
		return Rectangle, nil
	case "RecTri", "rectri":
		return RecTri, nil
	case "Pentagon", "pentagon":
		return Pentagon, nil
	}
	return 0, fmt.Errorf("motif: unknown pattern %q (want Triangle, Rectangle, RecTri or Pentagon)", s)
}

// Instance is one target subgraph: the concrete edges that, together with
// the (already deleted) target link, form the motif. Deleting any one of
// these edges breaks the instance.
type Instance struct {
	Target int32 // index of the owning target in the caller's target list
	Edges  []graph.Edge
}

// Scratch holds the reusable buffers one enumeration worker needs: the
// merge-join intersection buffers, the Pentagon kernel's 2-path buckets and
// the instance-edge emission buffer. A zero Scratch is ready to use; after
// a few calls the buffers reach the high-water mark of the workload and
// enumeration stops allocating entirely. A Scratch must not be shared
// between goroutines.
type Scratch struct {
	cn    []graph.NodeID // outer intersection (e.g. Γ(u) ∩ Γ(v))
	cn2   []graph.NodeID // inner intersection (per outer element)
	edges [4]graph.Edge  // emission buffer passed to visit

	// Pentagon only: bucket[b] heads the chain through link of every
	// c ∈ Γ(b) ∩ Γ(v) \ {u} for the current target, live iff its epoch
	// stamp equals epoch. Stamping instead of clearing keeps a target's
	// cost independent of NumNodes.
	epoch  uint32
	bucket []pentaBucket
	link   []pentaLink
}

type pentaBucket struct {
	epoch uint32
	head  int32 // index into Scratch.link, -1 ends the chain
}

type pentaLink struct {
	c    graph.NodeID
	next int32
}

// nextEpoch starts a fresh Pentagon bucket generation sized for n nodes.
//
//tpp:hotpath
func (sc *Scratch) nextEpoch(n int) {
	if len(sc.bucket) < n {
		sc.bucket = make([]pentaBucket, n) //lint:hotalloc-ok grows to NumNodes once per Scratch
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.bucket)
		sc.epoch = 1
	}
	sc.link = sc.link[:0]
}

// EnumerateTargetScratch lists every instance of pattern completing target
// t = (u, v) in g. g must be the phase-1 graph: all target links already
// removed, so instances never contain a target link and W_t sets are
// disjoint across targets by construction.
//
// The visit callback receives the edges of each instance; the slice is
// reused between calls and must not be retained. Instances are visited in
// a deterministic order (ascending by the intermediate nodes). sc holds
// caller-owned scratch buffers: in the steady state (warm scratch)
// enumeration performs no per-visit or per-pair allocations.
func EnumerateTargetScratch(g *graph.Graph, pattern Pattern, t graph.Edge, sc *Scratch, visit func(edges []graph.Edge)) {
	enumerate(g, pattern, t, sc, visit)
}

// enumerate is the single kernel behind both enumeration and counting: it
// walks every instance of pattern completing t, calls visit (when non-nil)
// per instance, and returns the instance count. Keeping one kernel
// guarantees Count and EnumerateTargetScratch can never disagree. Triangle,
// Rectangle and RecTri are merge-joins over the graph's sorted neighbor
// rows, O(d_u · d_v)-ish per target; Pentagon is a meet-in-the-middle join
// costing Σ_{c∈Γ(v)} d_c + Σ_{a∈Γ(u)} d_a + #instances.
//
//tpp:hotpath
func enumerate(g *graph.Graph, pattern Pattern, t graph.Edge, sc *Scratch, visit func(edges []graph.Edge)) int {
	u, v := t.U, t.V
	n := 0
	switch pattern {
	case Triangle:
		sc.cn = g.AppendCommonNeighbors(u, v, sc.cn[:0])
		for _, w := range sc.cn {
			n++
			if visit != nil {
				sc.edges[0] = graph.NewEdge(u, w)
				sc.edges[1] = graph.NewEdge(w, v)
				visit(sc.edges[:2])
			}
		}

	case Rectangle:
		// u–a–b–v: a ∈ Γ(u)\{v}, b ∈ Γ(a) ∩ Γ(v) \ {u} (b ≠ a, b ≠ v hold
		// automatically in a simple graph).
		for _, a := range g.NeighborsView(u) {
			if a == v {
				continue
			}
			sc.cn2 = g.AppendCommonNeighbors(a, v, sc.cn2[:0])
			for _, b := range sc.cn2 {
				if b == u {
					continue
				}
				n++
				if visit != nil {
					sc.edges[0] = graph.NewEdge(u, a)
					sc.edges[1] = graph.NewEdge(a, b)
					sc.edges[2] = graph.NewEdge(b, v)
					visit(sc.edges[:3])
				}
			}
		}

	case RecTri:
		sc.cn = g.AppendCommonNeighbors(u, v, sc.cn[:0])
		for _, w := range sc.cn {
			// orientation 1: triangle on the u side — 3-path u–x–w–v.
			sc.cn2 = g.AppendCommonNeighbors(u, w, sc.cn2[:0])
			for _, x := range sc.cn2 {
				if x == v {
					continue
				}
				n++
				if visit != nil {
					sc.edges[0] = graph.NewEdge(u, w)
					sc.edges[1] = graph.NewEdge(w, v)
					sc.edges[2] = graph.NewEdge(u, x)
					sc.edges[3] = graph.NewEdge(x, w)
					visit(sc.edges[:4])
				}
			}
			// orientation 2: triangle on the v side — 3-path u–w–x–v.
			sc.cn2 = g.AppendCommonNeighbors(w, v, sc.cn2[:0])
			for _, x := range sc.cn2 {
				if x == u {
					continue
				}
				n++
				if visit != nil {
					sc.edges[0] = graph.NewEdge(u, w)
					sc.edges[1] = graph.NewEdge(w, v)
					sc.edges[2] = graph.NewEdge(w, x)
					sc.edges[3] = graph.NewEdge(x, v)
					visit(sc.edges[:4])
				}
			}
		}

	case Pentagon:
		// u–a–b–c–v by meet-in-the-middle. First bucket v's side: every
		// 2-path v–c–b with c ≠ u and b ∉ {u, v} chains c onto bucket b.
		// Walking Γ(v) descending and prepending leaves each chain
		// ascending, so instances come out ascending by (a, b, c) as
		// EnumerateTargetScratch promises. Then walk u's side: every 2-path
		// u–a–b with a ≠ v closes with each c in bucket b except c == a
		// (b ∉ {u, v} because those buckets stay empty; c ≠ b, c ≠ v
		// automatic).
		sc.nextEpoch(g.NumNodes())
		ep := sc.epoch
		nv := g.NeighborsView(v)
		for i := len(nv) - 1; i >= 0; i-- {
			c := nv[i]
			if c == u {
				continue
			}
			for _, b := range g.NeighborsView(c) {
				if b == u || b == v {
					continue
				}
				bk := &sc.bucket[b]
				next := int32(-1)
				if bk.epoch == ep {
					next = bk.head
				}
				bk.epoch, bk.head = ep, int32(len(sc.link))
				sc.link = append(sc.link, pentaLink{c: c, next: next})
			}
		}
		for _, a := range g.NeighborsView(u) {
			if a == v {
				continue
			}
			for _, b := range g.NeighborsView(a) {
				if sc.bucket[b].epoch != ep {
					continue
				}
				for j := sc.bucket[b].head; j >= 0; j = sc.link[j].next {
					c := sc.link[j].c
					if c == a {
						continue
					}
					n++
					if visit != nil {
						sc.edges[0] = graph.NewEdge(u, a)
						sc.edges[1] = graph.NewEdge(a, b)
						sc.edges[2] = graph.NewEdge(b, c)
						sc.edges[3] = graph.NewEdge(c, v)
						visit(sc.edges[:4])
					}
				}
			}
		}

	default:
		panic("motif: invalid pattern")
	}
	return n
}

// Count returns s(·, t): the number of instances of pattern completing
// target t in the current graph. This is the naive recount path; its cost
// is the kernel's (see enumerate): O(d_u · d_v)-ish for the paper's
// motifs, exactly the complexity the paper analyses, and the bucketed
// path join for Pentagon. It allocates a fresh Scratch; hot loops use
// CountAllScratch or CountTotalScratch.
func Count(g *graph.Graph, pattern Pattern, t graph.Edge) int {
	var sc Scratch
	return enumerate(g, pattern, t, &sc, nil)
}

// CountAll returns Σ_t s(·, t) over all targets plus the per-target counts.
func CountAll(g *graph.Graph, pattern Pattern, targets []graph.Edge) (total int, perTarget []int) {
	perTarget = make([]int, len(targets))
	var sc Scratch
	return CountAllScratch(g, pattern, targets, &sc, perTarget), perTarget
}

// CountAllScratch writes the per-target counts into perTarget (len must be
// len(targets)) and returns the total, reusing the caller's scratch —
// the allocation-free form of CountAll.
//
//tpp:hotpath
func CountAllScratch(g *graph.Graph, pattern Pattern, targets []graph.Edge, sc *Scratch, perTarget []int) (total int) {
	for i, t := range targets {
		c := enumerate(g, pattern, t, sc, nil)
		perTarget[i] = c
		total += c
	}
	return total
}

// CountTotalScratch returns Σ_t s(·, t) without materialising per-target
// counts — the cheapest recount form, used by the SGB gain scans.
//
//tpp:hotpath
func CountTotalScratch(g *graph.Graph, pattern Pattern, targets []graph.Edge, sc *Scratch) (total int) {
	for _, t := range targets {
		total += enumerate(g, pattern, t, sc, nil)
	}
	return total
}

// Instances materialises every instance for every target (phase-1 graph).
func Instances(g *graph.Graph, pattern Pattern, targets []graph.Edge) []Instance {
	var out []Instance
	var sc Scratch
	for i, t := range targets {
		EnumerateTargetScratch(g, pattern, t, &sc, func(edges []graph.Edge) {
			cp := make([]graph.Edge, len(edges))
			copy(cp, edges)
			out = append(out, Instance{Target: int32(i), Edges: cp})
		})
	}
	return out
}
