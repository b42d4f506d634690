// Package dynamic maintains TPP protection state over an evolving graph.
//
// The paper protects a static snapshot, but the social graphs it models
// change continuously — and so does what needs protecting. This package
// defines the unit of change, a Delta: a validated and canonicalized batch
// of session mutations covering edge insertions and removals, node arrivals
// and departures, and target-set edits (promote an absent pair to a
// protected target link, retire a current target). It also defines the
// contract for applying one to a graph and its motif index with the
// dominant cost — subgraph enumeration — proportional to the delta's reach
// instead of the graph: removals and dropped targets kill exactly the
// incident motif instances through the index's CSR edge → instance table,
// insertions re-enumerate only the targets they can possibly complete an
// instance for, an added target enumerates only itself, and node departures
// renumber the flat state without enumerating anything
// (motif.Index.ApplyMutation; the flat-array rewire that follows costs the
// same as an index Reset). The updated index is bit-identical —
// similarities, gains, selections — to a fresh motif.NewIndex on the
// mutated graph and mutated target list; the property tests in this package
// pin that guarantee down across patterns, worker counts and random
// mutation streams.
//
// Node departures use graph.RemoveNode's swap-with-last compaction, so a
// delta that removes nodes renames at most len(RemoveNodes) surviving
// nodes; the renaming is returned to the caller as a remap (see
// Delta.ApplyToGraph) so label tables and caches can follow along.
//
// Up the stack, tpp.Protector.Apply threads a Delta through a long-lived
// protection session, and cmd/tppd exposes session-scoped deltas over HTTP.
package dynamic

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// ErrInvalid is wrapped by every delta validation failure, so protocol
// boundaries (cmd/tppd maps it to HTTP 400) can distinguish caller mistakes
// from internal failures with errors.Is.
var ErrInvalid = errors.New("dynamic: invalid delta")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Delta is one batch of session mutations, applied atomically: edges to
// insert and remove, nodes to add and remove, and target links to add and
// drop. The zero value mutates nothing.
//
// Field semantics (all node IDs are pre-delta IDs; on a graph with n nodes
// the AddNodes arrivals receive IDs n..n+AddNodes-1 and may be referenced
// by Insert and AddTargets):
//
//   - Insert / Remove mutate ordinary (non-target) edges.
//   - AddNodes appends that many fresh isolated nodes.
//   - RemoveNodes deletes nodes. A removed node must be isolated once the
//     delta's edge removals and target drops have taken effect, and must
//     not be an endpoint of any surviving or added target.
//   - AddTargets promotes absent non-target pairs to protected target
//     links: the link joins the target list (appended in canonical order
//     after the survivors), but never the phase-1 graph — targets are
//     withheld from release by definition.
//   - DropTargets retires current targets: the link leaves the target list
//     (it was never in the phase-1 graph).
//     A delta may not retire every target: a session must always have at
//     least one link to protect.
//
// gen.Mutation is the field-identical struct emitted by the mutation churn
// generator; convert with dynamic.Delta(m).
type Delta struct {
	Insert []graph.Edge
	Remove []graph.Edge

	AddNodes    int
	RemoveNodes []graph.NodeID

	AddTargets  []graph.Edge
	DropTargets []graph.Edge
}

// Empty reports whether the delta mutates nothing.
func (d Delta) Empty() bool {
	return len(d.Insert) == 0 && len(d.Remove) == 0 &&
		d.AddNodes == 0 && len(d.RemoveNodes) == 0 &&
		len(d.AddTargets) == 0 && len(d.DropTargets) == 0
}

// Size returns the number of mutations in the delta, counting each edge,
// node and target change as one.
func (d Delta) Size() int {
	return len(d.Insert) + len(d.Remove) +
		d.AddNodes + len(d.RemoveNodes) +
		len(d.AddTargets) + len(d.DropTargets)
}

// Canonicalize returns the delta's normal form: every edge canonical
// (U < V), each list sorted and deduplicated. It fails if an edge is a self
// loop, if AddNodes is negative, or if the same edge appears in two lists
// whose combination has no coherent batch semantics (insert+remove,
// insert+add-target, remove+add-target, add-target+drop-target).
func (d Delta) Canonicalize() (Delta, error) {
	if d.AddNodes < 0 {
		return Delta{}, invalidf("negative node addition count %d", d.AddNodes)
	}
	out := Delta{AddNodes: d.AddNodes}
	// Fast path for already-canonical deltas (everything the mutation churn
	// or a replayed canonical delta produces): verify in place and reuse the
	// input slices — the session apply path then allocates nothing here.
	if edgesCanonical(d.Insert) && edgesCanonical(d.Remove) &&
		edgesCanonical(d.AddTargets) && edgesCanonical(d.DropTargets) &&
		nodesCanonical(d.RemoveNodes) {
		out = d
	} else {
		var err error
		if out.Insert, err = canonEdges(d.Insert, "insertion"); err != nil {
			return Delta{}, err
		}
		if out.Remove, err = canonEdges(d.Remove, "removal"); err != nil {
			return Delta{}, err
		}
		if out.AddTargets, err = canonEdges(d.AddTargets, "added target"); err != nil {
			return Delta{}, err
		}
		if out.DropTargets, err = canonEdges(d.DropTargets, "dropped target"); err != nil {
			return Delta{}, err
		}
		if len(d.RemoveNodes) > 0 {
			out.RemoveNodes = slices.Clone(d.RemoveNodes)
			slices.Sort(out.RemoveNodes)
			out.RemoveNodes = slices.Compact(out.RemoveNodes)
		}
	}
	for _, o := range []struct {
		a, b         []graph.Edge
		kindA, kindB string
	}{
		{out.Insert, out.Remove, "insertion", "removal"},
		{out.Insert, out.AddTargets, "insertion", "added target"},
		{out.Remove, out.AddTargets, "removal", "added target"},
		{out.AddTargets, out.DropTargets, "added target", "dropped target"},
	} {
		if e, ok := overlap(o.a, o.b); ok {
			return Delta{}, invalidf("edge %v appears as both %s and %s", e, o.kindA, o.kindB)
		}
	}
	return out, nil
}

// edgesCanonical reports whether every edge is canonical (U < V, no self
// loops) and the list strictly ascends (sorted, duplicate-free).
func edgesCanonical(es []graph.Edge) bool {
	for i, e := range es {
		if e.U >= e.V {
			return false
		}
		if i > 0 && !es[i-1].Less(e) {
			return false
		}
	}
	return true
}

// nodesCanonical reports whether the node list strictly ascends.
func nodesCanonical(ns []graph.NodeID) bool {
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			return false
		}
	}
	return true
}

// overlap reports the first edge common to two sorted lists via one merge
// walk.
func overlap(a, b []graph.Edge) (graph.Edge, bool) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return graph.Edge{}, false
}

func canonEdges(es []graph.Edge, kind string) ([]graph.Edge, error) {
	if len(es) == 0 {
		return nil, nil
	}
	out := make([]graph.Edge, 0, len(es))
	for _, e := range es {
		if e.U == e.V {
			return nil, invalidf("%s %d-%d is a self loop", kind, e.U, e.V)
		}
		if !e.Canonical() {
			e = graph.Edge{U: e.V, V: e.U}
		}
		out = append(out, e)
	}
	graph.SortEdges(out)
	return slices.Compact(out), nil
}

// TargetSet is a target list as a sorted set of packed canonical links, the
// form Validate looks targets up in: each of its few dozen membership
// queries per delta is one binary search. A session keeps one next to its
// target list and moves it along with each delta (Apply), so validating a
// delta never re-sorts the targets.
type TargetSet struct {
	packed []uint64 // PackEdge of each canonical target, ascending
}

// NewTargetSet returns the set of the given target links.
func NewTargetSet(targets []graph.Edge) TargetSet {
	s := TargetSet{packed: make([]uint64, 0, len(targets))}
	for _, t := range targets {
		if !t.Canonical() {
			t = graph.Edge{U: t.V, V: t.U}
		}
		s.packed = append(s.packed, graph.PackEdge(t))
	}
	slices.Sort(s.packed)
	return s
}

// Apply moves s, the set of a validated delta's pre-delta targets, to the
// set of the list d.ApplyTargets(targets, remap) returns: dropped targets
// leave, survivors are renamed through remap, added targets join. Only
// the keys the delta touches move; nothing is re-sorted unless a rename
// changed some survivor's spelling.
func (s *TargetSet) Apply(d Delta, remap []graph.NodeID) {
	if len(d.DropTargets) > 0 {
		s.packed = slices.DeleteFunc(s.packed, func(k uint64) bool {
			_, ok := slices.BinarySearchFunc(d.DropTargets, k, func(t graph.Edge, k uint64) int {
				return cmp.Compare(graph.PackEdge(t), k)
			})
			return ok
		})
	}
	rename := func(e graph.Edge) graph.Edge { return graph.NewEdge(remap[e.U], remap[e.V]) }
	if remap != nil {
		moved := false
		for i, k := range s.packed {
			if r := graph.PackEdge(rename(graph.UnpackEdge(k))); r != k {
				s.packed[i], moved = r, true
			}
		}
		if moved {
			slices.Sort(s.packed)
		}
	}
	for _, t := range d.AddTargets {
		if remap != nil {
			t = rename(t)
		}
		k := graph.PackEdge(t)
		i, _ := slices.BinarySearch(s.packed, k)
		s.packed = slices.Insert(s.packed, i, k)
	}
}

// Len returns the number of targets.
func (s TargetSet) Len() int { return len(s.packed) }

// MemFootprint returns the bytes the set holds.
func (s TargetSet) MemFootprint() int64 { return int64(cap(s.packed)) * 8 }

// Has reports whether e, in either orientation, is a target link.
func (s TargetSet) Has(e graph.Edge) bool {
	if !e.Canonical() {
		e = graph.Edge{U: e.V, V: e.U}
	}
	_, ok := slices.BinarySearch(s.packed, graph.PackEdge(e))
	return ok
}

// Validate checks a canonical delta against the graph it is about to mutate
// and the protected target links. Insertions must be absent edges over
// existing (or same-delta added) nodes; removals must be present; neither
// may touch a target link. Added targets must be absent non-target pairs;
// dropped targets must currently be targets, and at least one target must
// survive the delta. A removed node must be in range, isolated once the
// delta's edge removals (and drops of its incident targets) have taken
// effect, untouched by insertions and added targets, and not an endpoint of
// any surviving target. g is the phase-1 graph (targets removed), the one
// graph a session keeps; every check is arranged to give the same answer
// on the original graph (targets present), so either may be passed.
//
// Validate builds the target set on every call; a caller validating a
// stream of deltas against one evolving target list keeps a TargetSet and
// calls ValidateTargets instead.
func (d Delta) Validate(g *graph.Graph, targets []graph.Edge) error {
	return d.ValidateTargets(g, NewTargetSet(targets))
}

// ValidateTargets is Validate against a target set kept by the caller.
func (d Delta) ValidateTargets(g *graph.Graph, targets TargetSet) error {
	isDropped := func(e graph.Edge) bool { // DropTargets is canonical: sorted, deduped
		_, ok := slices.BinarySearchFunc(d.DropTargets, e, func(a, b graph.Edge) int {
			if a == b {
				return 0
			}
			if a.Less(b) {
				return -1
			}
			return 1
		})
		return ok
	}
	n := graph.NodeID(g.NumNodes())
	nAfter := n + graph.NodeID(d.AddNodes)
	for _, x := range d.RemoveNodes {
		if x < 0 || x >= n {
			return invalidf("removed node %d outside [0,%d)", x, n)
		}
	}
	removedNode := func(x graph.NodeID) bool { // RemoveNodes is canonical: sorted
		_, ok := slices.BinarySearch(d.RemoveNodes, x)
		return ok
	}
	for _, t := range d.DropTargets {
		if !targets.Has(t) {
			return invalidf("dropped target %v is not a current target", t)
		}
	}
	if targets.Len() > 0 && targets.Len()-len(d.DropTargets)+len(d.AddTargets) == 0 {
		return invalidf("delta drops every target; a session must keep at least one")
	}
	touchesRemoved := func(e graph.Edge) (graph.NodeID, bool) {
		if removedNode(e.U) {
			return e.U, true
		}
		if removedNode(e.V) {
			return e.V, true
		}
		return 0, false
	}
	for _, e := range d.Insert {
		if e.U < 0 || e.V >= nAfter {
			return invalidf("insertion %v references a node outside [0,%d)", e, nAfter)
		}
		if targets.Has(e) {
			return invalidf("insertion %v is a protected target link", e)
		}
		if x, ok := touchesRemoved(e); ok {
			return invalidf("insertion %v touches removed node %d", e, x)
		}
		if e.V < n && g.HasEdgeE(e) {
			return invalidf("insertion %v already present in the graph", e)
		}
	}
	for _, e := range d.Remove {
		if e.U < 0 || e.V >= n {
			return invalidf("removal %v references a node outside [0,%d)", e, n)
		}
		if targets.Has(e) {
			return invalidf("removal %v is a protected target link", e)
		}
		if !g.HasEdgeE(e) {
			return invalidf("removal %v not present in the graph", e)
		}
	}
	for _, e := range d.AddTargets {
		if e.U < 0 || e.V >= nAfter {
			return invalidf("added target %v references a node outside [0,%d)", e, nAfter)
		}
		if targets.Has(e) {
			return invalidf("added target %v is already a target", e)
		}
		if x, ok := touchesRemoved(e); ok {
			return invalidf("added target %v touches removed node %d", e, x)
		}
		if e.V < n && g.HasEdgeE(e) {
			return invalidf("added target %v must be an absent link", e)
		}
	}
	for _, x := range d.RemoveNodes {
		for _, p := range targets.packed {
			if t := graph.UnpackEdge(p); t.Has(x) && !isDropped(t) {
				return invalidf("removed node %d is an endpoint of target %v", x, t)
			}
		}
		// Isolation: every incident edge must leave with this delta. Degree
		// is counted on whichever graph we were given; a dropped incident
		// target contributes only where its link is present (the original
		// graph), so the arithmetic agrees on both.
		need := g.Degree(x)
		for _, e := range d.Remove {
			if e.Has(x) {
				need--
			}
		}
		for _, t := range d.DropTargets {
			if t.Has(x) && g.HasEdgeE(t) {
				need--
			}
		}
		if need != 0 {
			return invalidf("removed node %d keeps %d incident edges after the delta's removals", x, need)
		}
	}
	return nil
}

// ApplyToGraph mutates a phase-1 graph (target links absent) in place:
// node additions, then edge removals, then insertions, then node removals.
// Target membership changes never touch a phase-1 graph — target links are
// withheld from it by definition; ApplyTargets applies them to the target
// list. It returns the node remap produced by the removals (remap[old] =
// new ID, graph.NoNode for removed nodes; nil when no nodes were removed —
// see graph.Graph.RemoveNodes).
//
// The delta must have passed Validate against g (or a graph with the same
// membership for the delta's edges and nodes); on a validated delta every
// mutation takes effect.
func (d Delta) ApplyToGraph(g *graph.Graph) []graph.NodeID {
	for i := 0; i < d.AddNodes; i++ {
		g.AddNode()
	}
	for _, e := range d.Remove {
		g.RemoveEdgeE(e)
	}
	for _, e := range d.Insert {
		g.AddEdgeE(e)
	}
	return g.RemoveNodes(d.RemoveNodes)
}

// ApplyTargets returns the post-delta target list for a validated delta:
// dropped targets removed (survivors keep their relative order — it
// encodes protection priority), surviving targets renamed through remap,
// and added targets appended in canonical order, renamed too. When the
// delta leaves the list untouched the input slice is returned as is;
// otherwise the result is freshly allocated.
func (d Delta) ApplyTargets(targets []graph.Edge, remap []graph.NodeID) []graph.Edge {
	if len(d.AddTargets) == 0 && len(d.DropTargets) == 0 && remap == nil {
		return targets
	}
	rename := func(e graph.Edge) graph.Edge {
		if remap == nil {
			return e
		}
		return graph.NewEdge(remap[e.U], remap[e.V])
	}
	dropped := func(e graph.Edge) bool { // DropTargets is canonical: sorted
		for _, t := range d.DropTargets {
			if t == e {
				return true
			}
			if e.Less(t) {
				return false
			}
		}
		return false
	}
	out := make([]graph.Edge, 0, len(targets)-len(d.DropTargets)+len(d.AddTargets))
	for _, t := range targets {
		c := t
		if !c.Canonical() {
			c = graph.Edge{U: c.V, V: c.U}
		}
		if dropped(c) {
			continue
		}
		out = append(out, rename(c))
	}
	for _, t := range d.AddTargets {
		out = append(out, rename(t))
	}
	return out
}
