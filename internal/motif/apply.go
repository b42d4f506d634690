package motif

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/graph"
)

// targetIndex returns the position of t in the index's target list,
// comparing canonically, or -1.
func (ix *Index) targetIndex(t graph.Edge) int {
	t = canonEdge(t)
	for i, cur := range ix.targets {
		if canonEdge(cur) == t {
			return i
		}
	}
	return -1
}

// ApplyStats describes one incremental mutation application
// (ApplyMutation), for observability: how much of the index the mutation
// actually touched, versus the full re-enumeration it avoided.
type ApplyStats struct {
	// Inserted and Removed count the delta edges applied.
	Inserted, Removed int
	// TargetsAdded and TargetsDropped count the target-list edits applied.
	TargetsAdded, TargetsDropped int
	// TouchedTargets counts the surviving targets re-enumerated because an
	// inserted edge could complete one of their instances. Every other
	// surviving target kept its instance list verbatim (minus removal
	// kills); added targets are enumerated once and counted separately by
	// TargetsAdded.
	TouchedTargets int
	// KilledInstances counts instances of untouched surviving targets
	// destroyed by edge removals, found via the CSR edge→instance table.
	KilledInstances int
	// DroppedInstances counts instances discarded wholesale because their
	// target was dropped.
	DroppedInstances int
	// Instances is the live instance count after the apply, i.e. the new
	// s(∅, T).
	Instances int
	// TouchedEdges is the conservative set of edges whose fully-alive gain
	// the mutation may have changed, in canonical order and post-remap
	// spelling: the edges of every killed, dropped or re-enumerated old
	// instance plus the edges of every freshly enumerated one. An edge
	// outside this set provably keeps its instance set verbatim (modulo the
	// node renaming applied to both sides), which is what lets a warm-started
	// selection re-verify only these edges instead of the whole universe.
	// Edges that left the graph with a removed endpoint are omitted: they are
	// no longer candidates and their gain is zero by construction.
	TouchedEdges []graph.Edge
	// Elapsed is the wall-clock cost of the apply.
	Elapsed time.Duration
}

// Mutation is the index-level view of one applied session delta. All edges
// are named in PRE-remap node IDs — the IDs the index's current state and
// the delta itself use; Remap describes how the graph's node universe was
// renamed underneath (dynamic.Delta.ApplyToGraph returns exactly this).
type Mutation struct {
	// Inserted and Removed are the delta's ordinary-edge mutations. The
	// graph passed to ApplyMutation must already reflect them.
	Inserted, Removed []graph.Edge
	// AddTargets are appended to the target list in the given order;
	// DropTargets name current targets to retire. Neither list's links may
	// be present in the (phase-1) graph.
	AddTargets, DropTargets []graph.Edge
	// Remap renames the node universe: remap[old] = new ID, graph.NoNode
	// for removed nodes; nil means the universe is unchanged (node
	// additions alone never rename — fresh IDs append past the old range).
	Remap []graph.NodeID
}

// rename returns e spelled in post-remap node IDs (re-canonicalized: a
// renaming can flip the endpoint order). Only edges whose endpoints survive
// may be renamed.
func (m *Mutation) rename(e graph.Edge) graph.Edge {
	if m.Remap == nil {
		return e
	}
	return graph.NewEdge(m.Remap[e.U], m.Remap[e.V])
}

// ApplyMutation incrementally rewires the index for one applied session
// mutation: edge insertions and removals, target-list edits, and a node
// renaming (see Mutation). The subgraph enumeration — the dominant cost of
// a fresh build — shrinks to the mutation's reach: only insert-touched
// surviving targets and added targets enumerate, and a mutation with
// neither enumerates nothing at all. The flat arrays (interner, CSR table,
// gains, heap) are then rewired wholesale in O(universe + instances), the
// same cheap cost class as Reset. g must be the phase-1 graph with the
// mutation already applied (removed edges and nodes gone, inserted edges
// present, nodes renamed, no target link — old, surviving or added —
// present).
//
// Removals can only destroy instances; the CSR edge→instance table names
// exactly the instances each removed edge participated in, so they are
// killed without touching the graph. A dropped target's instances are
// discarded wholesale with it. Insertions can only create instances, and a
// new instance must use at least one inserted edge, so only surviving
// targets for which some inserted edge can sit inside an instance (a
// local, O(1) adjacency test per target × inserted edge — see
// insertTouches) are re-enumerated with the same kernels NewIndex uses; an
// added target is enumerated exactly once; all other targets provably keep
// their instance sets. A node renaming re-spells the surviving instances'
// edges (their endpoints necessarily survive) without enumerating
// anything. The flat state is then rewired from the survivors and the
// enumeration arenas, so the resulting index — similarities, gains,
// candidate universe, heap order and therefore every selection made from
// it — is bit-identical to a fresh NewIndex on the mutated graph and
// mutated target list.
//
// Every mutation takes this one path; only what the mutation contains
// trims it. The union adjacency of the touched test is built only when
// edges are inserted, and a mutation that kills, enumerates, drops, adds
// and renames nothing (removals outside the interned universe, insertions
// that touch no target) leaves the instance set as it was, so it ends in
// Reset instead of a rewire.
//
// Any protector deletions recorded on the index (DeleteEdgeID since the
// last Reset) are discarded, exactly as a fresh build would: an applied
// index starts fully alive. Targets() reflects the new list afterwards:
// survivors keep their relative order, added targets append in the order
// given.
func (ix *Index) ApplyMutation(g *graph.Graph, m Mutation) (ApplyStats, error) {
	bs := getBuildScratch()
	defer putBuildScratch(bs)
	return ix.applyMutation(g, m, bs)
}

// applyMutation is ApplyMutation over caller-owned build scratch.
func (ix *Index) applyMutation(g *graph.Graph, m Mutation, bs *buildScratch) (ApplyStats, error) {
	start := time.Now()

	// Resolve the target-list edit first: drop flags on the old list, the
	// old→new target index map, and the new list in post-remap names.
	drop := scratchSlice(ix.sc.drop, len(ix.targets))
	ix.sc.drop = drop
	clear(drop)
	for _, t := range m.DropTargets {
		ti := ix.targetIndex(t)
		if ti < 0 {
			return ApplyStats{}, fmt.Errorf("motif: dropped target %v is not a target of this index", t)
		}
		if drop[ti] {
			return ApplyStats{}, fmt.Errorf("motif: target %v dropped twice", t)
		}
		drop[ti] = true
	}
	newIdx := scratchSlice(ix.sc.newIdx, len(ix.targets))
	ix.sc.newIdx = newIdx
	newTargets := make([]graph.Edge, 0, len(ix.targets)-len(m.DropTargets)+len(m.AddTargets))
	for ti, t := range ix.targets {
		if drop[ti] {
			newIdx[ti] = -1
			continue
		}
		newIdx[ti] = len(newTargets)
		newTargets = append(newTargets, m.rename(t))
	}
	addedFrom := len(newTargets)
	for _, t := range m.AddTargets {
		newTargets = append(newTargets, m.rename(canonEdge(t)))
	}

	// Sanity checks mirroring NewIndex's, kept delta-sized so the apply
	// path never pays per-target costs: an added target must be absent
	// from g, and no inserted edge may spell a target link (a surviving
	// target was absent before the mutation, and with target insertions
	// excluded it provably still is — renaming preserves absence).
	for _, t := range newTargets[addedFrom:] {
		if g.HasEdgeE(t) {
			return ApplyStats{}, fmt.Errorf("motif: target %v present in mutated graph; mutations must not insert target links", t)
		}
	}
	insertedNew := scratchSlice(ix.sc.insertedNew, len(m.Inserted))
	ix.sc.insertedNew = insertedNew
	for i, e := range m.Inserted {
		insertedNew[i] = m.rename(canonEdge(e))
		if !g.HasEdgeE(insertedNew[i]) {
			return ApplyStats{}, fmt.Errorf("motif: inserted edge %v absent from mutated graph; apply the delta to the graph before the index", e)
		}
		for _, t := range newTargets {
			if t == insertedNew[i] {
				return ApplyStats{}, fmt.Errorf("motif: inserted edge %v is a target link; mutations must not insert target links", e)
			}
		}
	}
	for _, e := range m.Removed {
		e = canonEdge(e)
		if m.Remap != nil && (m.Remap[e.U] == graph.NoNode || m.Remap[e.V] == graph.NoNode) {
			continue // an endpoint left the graph; the edge is certainly gone
		}
		if g.HasEdgeE(m.rename(e)) {
			return ApplyStats{}, fmt.Errorf("motif: removed edge %v still present in mutated graph; apply the delta to the graph before the index", e)
		}
	}

	// Adjacency in the union graph (old ∪ new edge sets), post-remap names:
	// g already reflects the mutation, so union adjacency is g plus the
	// removed edges whose endpoints survived (an edge with a removed
	// endpoint cannot answer a query about surviving nodes). The touched
	// test runs in the union so it soundly covers instances of both the old
	// and the new graph. Only inserted edges are tested, so the removed set
	// is built only when there are some.
	var removedSet map[graph.Edge]struct{}
	if len(insertedNew) > 0 {
		removedSet = make(map[graph.Edge]struct{}, len(m.Removed))
		for _, e := range m.Removed {
			e = canonEdge(e)
			if m.Remap != nil && (m.Remap[e.U] == graph.NoNode || m.Remap[e.V] == graph.NoNode) {
				continue
			}
			removedSet[m.rename(e)] = struct{}{}
		}
	}
	hasUnion := func(x, y graph.NodeID) bool {
		if x == y {
			return false
		}
		if g.HasEdge(x, y) {
			return true
		}
		_, ok := removedSet[graph.NewEdge(x, y)]
		return ok
	}

	// enum[nt] marks new-list targets to (re-)enumerate: surviving targets
	// an inserted edge touches, plus every added target.
	enum := scratchSlice(ix.sc.enum, len(newTargets))
	ix.sc.enum = enum
	clear(enum)
	nTouched := 0
	for nt, t := range newTargets[:addedFrom] {
		for _, e := range insertedNew {
			if insertTouches(ix.pattern, t, e, hasUnion) {
				enum[nt] = true
				nTouched++
				break
			}
		}
	}
	for nt := addedFrom; nt < len(newTargets); nt++ {
		enum[nt] = true
	}

	// Kill pass: an instance of a surviving, un-enumerated target dies iff
	// it contains a removed edge. The CSR rows of the removed ids (old
	// names — the universe predates the remap) name exactly those
	// instances; removed edges outside the interned universe participated
	// in none. Instances of dropped and enumerated targets are skipped —
	// dropped wholesale, or replaced below.
	killed := scratchSlice(ix.sc.killed, len(ix.inst))
	ix.sc.killed = killed
	clear(killed)
	nKilled := 0
	for _, e := range m.Removed {
		id := ix.in.ID(e)
		if id == graph.NoEdge {
			continue
		}
		for _, instID := range ix.instIDs[ix.instStart[id]:ix.instStart[id+1]] {
			if killed[instID] {
				continue
			}
			if nt := newIdx[ix.inst[instID].target]; nt >= 0 && !enum[nt] {
				killed[instID] = true
				nKilled++
			}
		}
	}
	nDropped := 0
	for i := range ix.inst {
		if newIdx[ix.inst[i].target] < 0 {
			nDropped++
		}
	}

	st := ApplyStats{
		Inserted:         len(m.Inserted),
		Removed:          len(m.Removed),
		TargetsAdded:     len(m.AddTargets),
		TargetsDropped:   len(m.DropTargets),
		TouchedTargets:   nTouched,
		KilledInstances:  nKilled,
		DroppedInstances: nDropped,
	}
	if nKilled == 0 && nTouched == 0 && len(m.DropTargets) == 0 && len(m.AddTargets) == 0 && m.Remap == nil {
		// Nothing was killed, enumerated, dropped, added or renamed: the
		// instance set and its universe are unchanged, and the state a fresh
		// build reaches is the build-time state with deletions discarded.
		ix.Reset()
	} else {
		// Enumerated targets go through the same worker-sharded kernel the
		// full build uses, so a broad mutation (hub insertions flagging many
		// targets) is never slower than its share of a parallel rebuild.
		bs.idx = bs.idx[:0]
		for nt := range newTargets {
			if enum[nt] {
				bs.idx = append(bs.idx, nt)
			}
		}
		enumerateInto(g, ix.pattern, newTargets, runtime.GOMAXPROCS(0), bs)

		// Touched-edge collection must read the old instance table, so it
		// runs before wireIncremental compacts it in place.
		st.TouchedEdges = ix.collectTouched(newIdx, enum, killed, &m, bs)
		ix.wireIncremental(newTargets, newIdx, enum, killed, &m, bs)
	}
	st.Instances = len(ix.inst)
	st.Elapsed = time.Since(start)
	return st, nil
}

// collectTouched gathers ApplyStats.TouchedEdges for a rewiring apply:
// the edges of every old instance that does not survive verbatim (killed by
// a removal, dropped with its target, or replaced by a re-enumeration) plus
// the edges of every freshly enumerated instance. Edges losing an endpoint
// to the remap are skipped — they leave the universe and have zero gain
// forever. The result is deduplicated in canonical order via the packed
// encoding; only the handed-out slice is freshly allocated.
func (ix *Index) collectTouched(newIdx []int, enum, killed []bool, m *Mutation, bs *buildScratch) []graph.Edge {
	buf := ix.sc.touched[:0]
	for i := range ix.inst {
		in0 := &ix.inst[i]
		if nt := newIdx[in0.target]; nt >= 0 && !enum[nt] && !killed[i] {
			continue // survives verbatim: contributes the same gains as before
		}
		for _, id := range in0.edges[:in0.ne] {
			e := ix.in.Edge(id)
			if m.Remap != nil {
				if m.Remap[e.U] == graph.NoNode || m.Remap[e.V] == graph.NoNode {
					continue
				}
				e = m.rename(e)
			}
			buf = append(buf, graph.PackEdge(e))
		}
	}
	for i := range bs.idx {
		for _, r := range bs.instances(i) {
			buf = append(buf, r.keys[:r.ne]...)
		}
	}
	slices.Sort(buf)
	buf = slices.Compact(buf)
	ix.sc.touched = buf
	out := make([]graph.Edge, len(buf))
	for i, p := range buf {
		out[i] = graph.UnpackEdge(p)
	}
	return out
}

// respelledEdge marks, in wireIncremental's old→new edge-id table, a
// surviving edge whose spelling changed under the node remap: its new id is
// resolved by a binary search over the new universe instead.
const respelledEdge graph.EdgeID = -2

// wireIncremental rewires the index's whole flat state — interned
// universe, instance table, gains, CSR incidences, heap — around the
// surviving instances and the freshly enumerated arenas, without the full
// builder's re-sort of every incidence and per-incidence re-interning.
//
// The old universe already ascends in canonical packed order, and PackEdge
// order is spelling order, so the new universe is a merge of two sorted
// sequences: the surviving same-spelling old edges (a monotone filter of
// the old universe), and a small "extras" set — surviving edges re-spelled
// by the node remap plus every edge of an enumerated instance — that is
// sorted on its own. Surviving instances then renumber their edge ids
// through an old→new table (O(1) each); only re-spelled and enumerated
// edges pay a binary search. The result is keyed identically to a full
// build on the same instance multiset — same universe, same gains, same
// heap order — which the parity suites pin against fresh NewIndex builds.
//
// Like every apply, recorded protector deletions are discarded: the rebuilt
// state starts fully alive.
func (ix *Index) wireIncremental(newTargets []graph.Edge, newIdx []int, enum, killed []bool, m *Mutation, bs *buildScratch) {
	oldIn := ix.in
	oldNE := oldIn.NumEdges()

	// Surviving incidence counts over the old universe (old ids). An edge
	// left with no surviving incidence drops out, exactly as a fresh build
	// would never intern it.
	oldGain := scratchSlice(ix.sc.oldGain, oldNE)
	ix.sc.oldGain = oldGain
	clear(oldGain)
	survives := func(i int) bool {
		nt := newIdx[ix.inst[i].target]
		return nt >= 0 && !enum[nt] && !killed[i]
	}
	for i := range ix.inst {
		if !survives(i) {
			continue
		}
		in0 := &ix.inst[i]
		for _, id := range in0.edges[:in0.ne] {
			oldGain[id]++
		}
	}

	// Classify the old universe: kept-in-place (same spelling) edges stream
	// out still sorted; re-spelled survivors join the extras.
	remapID := scratchSlice(ix.sc.remapID, oldNE)
	ix.sc.remapID = remapID
	kept := ix.sc.kept[:0]
	extras := ix.sc.extras[:0]
	for id := 0; id < oldNE; id++ {
		if oldGain[id] == 0 {
			remapID[id] = graph.NoEdge
			continue
		}
		e := oldIn.Edge(graph.EdgeID(id))
		if m.Remap != nil && (m.Remap[e.U] != e.U || m.Remap[e.V] != e.V) {
			remapID[id] = respelledEdge
			extras = append(extras, graph.PackEdge(m.rename(e)))
			continue
		}
		remapID[id] = graph.EdgeID(len(kept)) // provisional: index into kept
		kept = append(kept, graph.PackEdge(e))
	}
	for i := range bs.idx {
		for _, r := range bs.instances(i) {
			extras = append(extras, r.keys[:r.ne]...)
		}
	}
	slices.Sort(extras)
	extras = slices.Compact(extras)

	ix.sc.kept, ix.sc.extras = kept, extras

	// Merge kept and extras into the new universe (freshly allocated — the
	// interner retains it), recording where each kept edge landed so
	// remapID can be finalised.
	packed := make([]uint64, 0, len(kept)+len(extras))
	fin := scratchSlice(ix.sc.fin, len(kept))
	ix.sc.fin = fin
	i, j := 0, 0
	for i < len(kept) || j < len(extras) {
		switch {
		case j >= len(extras) || (i < len(kept) && kept[i] <= extras[j]):
			if j < len(extras) && kept[i] == extras[j] {
				j++
			}
			fin[i] = graph.EdgeID(len(packed))
			packed = append(packed, kept[i])
			i++
		default:
			packed = append(packed, extras[j])
			j++
		}
	}
	for id := 0; id < oldNE; id++ {
		if remapID[id] >= 0 {
			remapID[id] = fin[remapID[id]]
		}
	}
	in := graph.NewInternerFromPacked(packed)

	// Compact the instance table in place: survivors renumber their target
	// and edge ids (re-spelled edges resolve against the new universe) and
	// revive; enumerated instances append after them, resolved the same
	// way. Instance order within the table is unobservable — every exposed
	// quantity (similarities, gains, per-target splits, heap order) is an
	// aggregate over it.
	out := ix.inst[:0]
	for idx := range ix.inst {
		if !survives(idx) {
			continue
		}
		in0 := ix.inst[idx]
		in0.dead = false
		in0.target = int32(newIdx[in0.target])
		for j, id := range in0.edges[:in0.ne] {
			if nw := remapID[id]; nw != respelledEdge {
				in0.edges[j] = nw
			} else {
				in0.edges[j] = in.ID(m.rename(oldIn.Edge(id)))
			}
		}
		out = append(out, in0)
	}
	for i, nt := range bs.idx {
		for _, r := range bs.instances(i) {
			inst := indexedInstance{target: int32(nt), ne: r.ne}
			for j, k := range r.keys[:r.ne] {
				inst.edges[j] = in.ID(graph.UnpackEdge(k))
			}
			out = append(out, inst)
		}
	}
	ix.inst = out
	ix.in = in
	ix.targets = newTargets

	ix.gain = scratchSlice(ix.gain, len(packed))
	clear(ix.gain)
	ix.perTarget = scratchSlice(ix.perTarget, len(newTargets))
	clear(ix.perTarget)
	for idx := range ix.inst {
		in0 := &ix.inst[idx]
		ix.perTarget[in0.target]++
		for _, id := range in0.edges[:in0.ne] {
			ix.gain[id]++
		}
	}
	ix.alive = len(ix.inst)
	ix.wireFlat(bs)
}

// canonEdge returns e in canonical (U < V) form.
func canonEdge(e graph.Edge) graph.Edge {
	if !e.Canonical() {
		return graph.Edge{U: e.V, V: e.U}
	}
	return e
}

// CanCreateInstances reports whether inserting the edge e — already present
// in g — could have created any instance of pattern for target t. It is the
// same conservative-but-sound structural test ApplyMutation uses to restrict
// re-enumeration (see insertTouches): a false answer proves t's instance
// set cannot contain e, so callers maintaining an invariant over a stream
// of insertions (tpp.Guard) can skip targets — usually all of them —
// without enumerating anything.
func CanCreateInstances(g *graph.Graph, pattern Pattern, t, e graph.Edge) bool {
	return insertTouches(pattern, t, e, func(x, y graph.NodeID) bool { return g.HasEdge(x, y) })
}

// insertTouches reports whether inserting the edge e could create an
// instance of pattern for target t, judged in the union graph via hasUnion.
// The test is conservative (it may flag a target that gains nothing) but
// sound: every edge of every instance of t — in the old or the new graph —
// satisfies a structural condition this test covers, so a target it clears
// provably has an unchanged instance set under insertions.
//
// The per-pattern conditions follow from where an instance edge can sit
// relative to the target (u, v):
//
//   - Triangle u–w–v: both edges are incident to u or v.
//   - Rectangle u–a–b–v: end edges are incident to u or v; the middle edge
//     (a, b) has its endpoints split across N(u) and N(v).
//   - RecTri: the 2-path edges are incident to u or v; the triangle edges
//     (u, x) and (x, w) are incident to u or to a common neighbor w of u
//     and v.
//   - Pentagon u–a–b–c–v: every edge has at least one endpoint within
//     distance 1 of u or v.
func insertTouches(pattern Pattern, t, e graph.Edge, hasUnion func(x, y graph.NodeID) bool) bool {
	if e.Has(t.U) || e.Has(t.V) {
		return true
	}
	u, v := t.U, t.V
	x, y := e.U, e.V
	switch pattern {
	case Triangle:
		return false // non-incident edges never sit in a triangle instance
	case Rectangle:
		return (hasUnion(x, u) && hasUnion(y, v)) || (hasUnion(y, u) && hasUnion(x, v))
	case RecTri:
		return (hasUnion(x, u) && hasUnion(x, v)) || (hasUnion(y, u) && hasUnion(y, v))
	case Pentagon:
		return hasUnion(x, u) || hasUnion(x, v) || hasUnion(y, u) || hasUnion(y, v)
	}
	panic("motif: invalid pattern")
}
