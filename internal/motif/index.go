package motif

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Index is the scalable similarity-maintenance structure behind the paper's
// -R algorithm variants (Sec. V-D, Lemma 5).
//
// It enumerates every target subgraph once on the phase-1 graph, then
// maintains, under protector deletions:
//
//   - per-target alive-instance counts (the similarities s(P, t)),
//   - per-edge marginal gains (how many alive instances an edge breaks),
//   - the restricted candidate set of Lemma 5 (edges with positive gain),
//   - an indexed max-heap over the gains, so the greedy argmax is a peek.
//
// Deleting edges can only destroy instances, never create them (this is the
// monotonicity of f), so one up-front enumeration is complete.
//
// Every per-edge quantity is a flat slice indexed by graph.EdgeID instead
// of a map[graph.Edge]: the edge→instance incidence lists are a CSR table,
// deletions are a bitset, and gains live in a slice mirrored by the heap.
// The ids are interned once per build from the enumerated instances: a
// one-pass open-addressed dedup of their edges, then a sort of only the
// distinct edges, so ids follow canonical edge order. The hot paths
// (GainID, DeleteEdgeID, ArgmaxGainID, AppendCandidateIDs) perform no
// hashing, no sorting and no allocation. The Edge-keyed methods remain as
// thin wrappers that resolve the id first (a binary search over the
// interner's packed keys, not a map lookup).
type Index struct {
	pattern Pattern
	targets []graph.Edge
	in      *graph.Interner

	inst []indexedInstance

	// CSR incidence table: instIDs[instStart[id]:instStart[id+1]] are the
	// instances containing edge id. Built once; never mutated. The interned
	// universe is exactly the touched edges (the paper's W-edge set), so
	// every id has at least one incidence.
	instStart []int32
	instIDs   []int32

	gain      []int32  // id -> alive instances containing the edge
	deleted   []uint64 // bitset by id: protector edges already deleted
	nDeleted  int
	perTarget []int // s(P, t) per target
	alive     int   // Σ_t s(P, t)

	// Indexed max-heap over the whole interned universe ordered by
	// (gain desc, id asc). Gains only decrease under deletion, so
	// maintenance is sift-down only; entries are never removed — spent
	// edges sink with gain 0 and ArgmaxGain stops at a zero top.
	//
	// The heap is maintained lazily: wireFlat, Reset and DeleteEdgeIDNoHeap
	// mark it dirty instead of (re)heapifying, and the first ArgmaxGainID
	// afterwards restores it in one O(E) pass. Consumers that never peek —
	// CT/WT, warm-started replays — therefore skip
	// heap maintenance entirely.
	heap      []graph.EdgeID
	heapPos   []int32 // id -> position in heap (every id is always present)
	heapDirty bool    // heap order stale; rebuilt on next ArgmaxGainID

	// Apply-path scratch, reused across ApplyMutation calls so a churny
	// session settles into few allocations per delta. Index is not safe
	// for concurrent mutation, so the scratch needs no locking.
	sc applyScratch

	stats BuildStats
}

// applyScratch holds the universe- and instance-sized working buffers of
// the incremental apply path.
type applyScratch struct {
	drop        []bool
	newIdx      []int
	enum        []bool
	killed      []bool
	insertedNew []graph.Edge
	byTarget    [][]rawInstance
	oldGain     []int32
	remapID     []graph.EdgeID
	kept        []uint64
	extras      []uint64
	fin         []graph.EdgeID
	touched     []uint64
}

// scratchSlice returns buf resized to n, reallocating only on growth.
// Contents are unspecified; callers either overwrite every element or
// clear() it first.
func scratchSlice[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// indexedInstance is one enumerated target subgraph, stored compactly: the
// owning target and up to four interned edge ids.
type indexedInstance struct {
	target int32
	edges  [4]graph.EdgeID
	ne     uint8
	dead   bool
}

// BuildStats describes one index construction, for observability: how many
// workers enumerated, how many instances they found, and how long the
// enumeration (the dominant cost of a protection request) took.
type BuildStats struct {
	Workers   int
	Instances int
	Elapsed   time.Duration
}

// NewIndex builds the index for the given pattern and targets, enumerating
// with one worker per CPU. g must be the phase-1 graph (targets already
// removed); NewIndex returns an error if any target link is still present,
// because that violates the TPP model (phase 1 precedes phase 2) and would
// make W_t sets overlap.
func NewIndex(g *graph.Graph, pattern Pattern, targets []graph.Edge) (*Index, error) {
	return NewIndexWorkers(g, pattern, targets, 0)
}

// rawInstance is a worker-local enumeration record, merged into the index
// deterministically by target order. It stores edges, not ids: the edge
// universe is only known once every instance has been enumerated.
type rawInstance struct {
	edges [4]graph.Edge
	ne    uint8
}

// NewIndexWorkers is NewIndex with an explicit enumeration worker count
// (<= 0 selects GOMAXPROCS). Targets are sharded across the workers with
// per-worker instance buffers merged in target order, so the resulting
// index — and every selection made from it — is identical for any worker
// count.
func NewIndexWorkers(g *graph.Graph, pattern Pattern, targets []graph.Edge, workers int) (*Index, error) {
	start := time.Now()
	for _, t := range targets {
		if g.HasEdgeE(t) {
			return nil, fmt.Errorf("motif: target %v still present in graph; remove all targets (phase 1) before indexing", t)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}

	ix := &Index{
		pattern: pattern,
		targets: append([]graph.Edge(nil), targets...),
	}

	byTarget := make([][]rawInstance, len(targets))
	all := make([]int, len(targets))
	for ti := range all {
		all[ti] = ti
	}
	enumerateInto(g, pattern, targets, all, workers, byTarget)

	ix.build(byTarget, g.NumEdges())
	ix.stats = BuildStats{Workers: workers, Instances: len(ix.inst), Elapsed: time.Since(start)}
	return ix, nil
}

// enumerateInto enumerates the targets named by indices into their
// byTarget slots, sharding them across workers claiming indices off an
// atomic cursor (reads of g are concurrency-safe). Worker count never
// changes the per-target instance sets, only who finds them, so any
// downstream merge is deterministic. Both the full build and the
// incremental apply (touched targets only) enumerate through here.
func enumerateInto(g *graph.Graph, pattern Pattern, targets []graph.Edge, indices []int, workers int, byTarget [][]rawInstance) {
	// Each worker owns one Scratch for its whole shard: the merge-join
	// buffers warm up once and every subsequent target enumerates without
	// per-visit allocations.
	enumerate := func(ti int, sc *Scratch) {
		var buf []rawInstance
		EnumerateTargetScratch(g, pattern, targets[ti], sc, func(edges []graph.Edge) {
			var r rawInstance
			r.ne = uint8(len(edges))
			copy(r.edges[:], edges)
			buf = append(buf, r)
		})
		byTarget[ti] = buf
	}
	if workers > len(indices) {
		workers = len(indices)
	}
	if workers <= 1 {
		var sc Scratch
		for _, ti := range indices {
			enumerate(ti, &sc)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(indices) {
					return
				}
				enumerate(indices[i], &sc)
			}
		}()
	}
	wg.Wait()
}

// build wires the index's entire flat state — interned edge universe,
// merged instance table, CSR incidences, gains, deletion bitset and gain
// heap — from per-target raw instance buffers fresh from a full enumeration
// of a graph with graphEdges edges. Only NewIndexWorkers calls it;
// ApplyMutation reaches the same state through wireIncremental, and the
// parity suites pin the two against each other. The built state starts
// fully alive.
func (ix *Index) build(byTarget [][]rawInstance, graphEdges int) {
	// Intern the touched edge universe: exactly the edges appearing in some
	// instance (the paper's W-edge set). One pass dedups the incidences in
	// an open-addressed table of packed keys, remembering each incidence's
	// slot and counting each edge's gain there; only the W distinct keys
	// are then sorted, so ids keep canonical order. The graph's adjacency
	// is never iterated wholesale, which keeps index construction cheap on
	// large sparse graphs.
	total := 0
	incidences := 0
	for _, buf := range byTarget {
		total += len(buf)
		for _, r := range buf {
			incidences += int(r.ne)
		}
	}
	// W <= min(incidences, graphEdges), so the table is at most half full
	// and a probe always ends at an empty slot.
	size := 2
	for size < 2*min(incidences, graphEdges) {
		size <<= 1
	}
	shift := 64 - bits.TrailingZeros(uint(size))
	keys := make([]uint64, size) // 0 = empty: PackEdge never yields it
	count := make([]int32, size) // per slot: the edge's gain, then its id
	slot := make([]int32, 0, incidences)
	packed := make([]uint64, 0, min(incidences, graphEdges))
	for _, buf := range byTarget {
		for _, r := range buf {
			for _, e := range r.edges[:r.ne] {
				k := graph.PackEdge(e)
				s := probe(keys, k, shift)
				if keys[s] == 0 {
					if 2*len(packed) >= size {
						panic("motif: instance edges outnumber the graph's edges")
					}
					keys[s] = k
					packed = append(packed, k)
				}
				count[s]++
				slot = append(slot, int32(s))
			}
		}
	}
	slices.Sort(packed)
	in := graph.NewInternerFromPacked(packed)
	ix.in = in
	ix.gain = make([]int32, len(packed))
	for id, k := range packed {
		s := probe(keys, k, shift)
		ix.gain[id] = count[s]
		count[s] = int32(id)
	}

	// Deterministic merge: instances land in target order regardless of
	// which worker enumerated them, each edge resolved to its id by one
	// read of the slot recorded above.
	ix.inst = make([]indexedInstance, 0, total)
	ix.perTarget = make([]int, len(byTarget))
	ix.alive = 0
	k := 0
	for ti, buf := range byTarget {
		for _, r := range buf {
			inst := indexedInstance{target: int32(ti), ne: r.ne}
			for j := range r.ne {
				inst.edges[j] = graph.EdgeID(count[slot[k]])
				k++
			}
			ix.inst = append(ix.inst, inst)
		}
		ix.perTarget[ti] = len(buf)
		ix.alive += len(buf)
	}

	ix.wireFlat()
}

// probe returns the slot of key k in the open-addressed table keys (a
// power of two long, indexed by the top bits of a Fibonacci hash): the
// slot holding k, or the empty slot where linear probing would insert it.
func probe(keys []uint64, k uint64, shift int) int {
	mask := len(keys) - 1
	s := int((k * 0x9E3779B97F4A7C15) >> shift)
	for keys[s] != 0 && keys[s] != k {
		s = (s + 1) & mask
	}
	return s
}

// wireFlat (re)builds the per-edge flat state — deletion bitset, CSR
// edge→instance incidence table, gain heap — from ix.in, ix.inst and
// ix.gain, which must already hold the interned universe, the resolved
// instance table and the per-edge alive counts (the build-time gains double
// as CSR row lengths). Shared by the full builder and the pure-removal
// fast path of ApplyDelta.
func (ix *Index) wireFlat() {
	ne := ix.in.NumEdges()
	ix.deleted = make([]uint64, (ne+63)/64)
	ix.nDeleted = 0
	ix.instStart = make([]int32, ne+1)
	for id := 0; id < ne; id++ {
		ix.instStart[id+1] = ix.instStart[id] + ix.gain[id]
	}
	ix.instIDs = make([]int32, ix.instStart[ne])
	cursor := make([]int32, ne)
	copy(cursor, ix.instStart[:ne])
	for i := range ix.inst {
		inst := &ix.inst[i]
		for _, id := range inst.edges[:inst.ne] {
			ix.instIDs[cursor[id]] = int32(i)
			cursor[id]++
		}
	}

	ix.heapPos = make([]int32, ne)
	ix.heapDirty = true // restored lazily by the next ArgmaxGainID
}

// Pattern returns the motif pattern the index was built for.
func (ix *Index) Pattern() Pattern { return ix.pattern }

// Targets returns a copy of the current target list. Target lists are
// mutable now that ApplyMutation edits them in place, so the internal slice
// is never handed out; callers may keep or modify the copy freely.
func (ix *Index) Targets() []graph.Edge {
	return append([]graph.Edge(nil), ix.targets...)
}

// NumTargets returns the current target count without copying the list.
func (ix *Index) NumTargets() int { return len(ix.targets) }

// Interner returns the edge table the index was built over: the dense
// EdgeID universe of the phase-1 graph. Callers use it to translate between
// EdgeIDs and edges at API boundaries.
func (ix *Index) Interner() *graph.Interner { return ix.in }

// BuildStats reports how the index was constructed.
func (ix *Index) BuildStats() BuildStats { return ix.stats }

// NumInstances returns the total number of enumerated target subgraphs
// (alive or dead), i.e. s(∅, T).
func (ix *Index) NumInstances() int { return len(ix.inst) }

// TotalSimilarity returns Σ_t s(P, t) for the current deletion state.
func (ix *Index) TotalSimilarity() int { return ix.alive }

// Similarity returns s(P, t) for target index ti.
func (ix *Index) Similarity(ti int) int { return ix.perTarget[ti] }

// Similarities returns a copy of all per-target similarities.
func (ix *Index) Similarities() []int {
	return append([]int(nil), ix.perTarget...)
}

// isDeleted reads the deletion bit of id.
//
//tpp:hotpath
func (ix *Index) isDeleted(id graph.EdgeID) bool {
	return ix.deleted[uint(id)/64]&(1<<(uint(id)%64)) != 0
}

// GainID returns Δ_p for the edge with the given id: the number of alive
// instances its deletion would break (exact because f is modular-per-
// instance once the instance set is fixed). A deleted edge's gain is 0.
//
//tpp:hotpath
func (ix *Index) GainID(id graph.EdgeID) int { return int(ix.gain[id]) }

// Gain is GainID keyed by edge; unknown edges have zero gain.
func (ix *Index) Gain(p graph.Edge) int {
	id := ix.in.ID(p)
	if id == graph.NoEdge {
		return 0
	}
	return int(ix.gain[id])
}

// GainForTargetID splits Δ_p^t for CT/WT greedy: within = alive instances
// of target ti containing the edge; total = alive instances of any target
// containing it. The paper's Δ_p^t = within + (total − within)/C; with C
// large this is a lexicographic (within, total) ordering, which is how we
// compare.
//
//tpp:hotpath
func (ix *Index) GainForTargetID(id graph.EdgeID, ti int) (within, total int) {
	for _, instID := range ix.instIDs[ix.instStart[id]:ix.instStart[id+1]] {
		in := &ix.inst[instID]
		if in.dead {
			continue
		}
		total++
		if int(in.target) == ti {
			within++
		}
	}
	return within, total
}

// GainForTarget is GainForTargetID keyed by edge.
func (ix *Index) GainForTarget(p graph.Edge, ti int) (within, total int) {
	id := ix.in.ID(p)
	if id == graph.NoEdge {
		return 0, 0
	}
	return ix.GainForTargetID(id, ti)
}

// GainVectorIDInto writes the per-target marginal gains of deleting the
// edge into buf (len(buf) must be the target count) and returns (buf,
// total), or (nil, 0) when the edge touches no alive instance — without
// allocating either way. buf is only zeroed when the edge is live, so
// callers must not read it when nil is returned.
//
//tpp:hotpath
func (ix *Index) GainVectorIDInto(id graph.EdgeID, buf []int) (perTarget []int, total int) {
	for _, instID := range ix.instIDs[ix.instStart[id]:ix.instStart[id+1]] {
		in := &ix.inst[instID]
		if in.dead {
			continue
		}
		if total == 0 {
			for i := range buf {
				buf[i] = 0
			}
		}
		buf[in.target]++
		total++
	}
	if total == 0 {
		return nil, 0
	}
	return buf, total
}

// GainVector returns the per-target marginal gains of deleting p (alive
// instances of each target containing p, indexed by target position) plus
// the total. The slice is freshly allocated only when p touches at least
// one alive instance; otherwise it returns (nil, 0).
func (ix *Index) GainVector(p graph.Edge) (perTarget []int, total int) {
	id := ix.in.ID(p)
	if id == graph.NoEdge {
		return nil, 0
	}
	return ix.GainVectorIDInto(id, make([]int, len(ix.targets)))
}

// DeletedID reports whether the edge with the given id was already deleted
// through the index.
func (ix *Index) DeletedID(id graph.EdgeID) bool { return ix.isDeleted(id) }

// Deleted is DeletedID keyed by edge.
func (ix *Index) Deleted(p graph.Edge) bool {
	id := ix.in.ID(p)
	return id != graph.NoEdge && ix.isDeleted(id)
}

// DeleteEdgeID records the deletion of the protector with the given id,
// killing every alive instance containing it and updating all affected
// per-edge gains and their heap entries. It returns the number of instances
// broken (the realised Δf). Deleting an edge twice is an error in the
// caller; the second call returns 0.
//
//tpp:hotpath
func (ix *Index) DeleteEdgeID(id graph.EdgeID) int {
	if ix.isDeleted(id) {
		return 0
	}
	ix.deleted[uint(id)/64] |= 1 << (uint(id) % 64)
	ix.nDeleted++
	broken := 0
	for _, instID := range ix.instIDs[ix.instStart[id]:ix.instStart[id+1]] {
		in := &ix.inst[instID]
		if in.dead {
			continue
		}
		in.dead = true
		broken++
		ix.perTarget[in.target]--
		ix.alive--
		for _, e := range in.edges[:in.ne] {
			ix.gain[e]--
			// Only this entry's key shrank, so one sift-down restores the
			// heap property (a parent can only have grown relatively). A
			// dirty heap is rebuilt wholesale on the next peek, so touching
			// it here would be wasted work.
			if !ix.heapDirty {
				ix.heapSiftDown(int(ix.heapPos[e]))
			}
		}
	}
	return broken
}

// DeleteEdgeIDNoHeap is DeleteEdgeID minus the gain-heap maintenance: it
// marks the heap dirty and skips the per-incidence sift-downs, deferring the
// whole repair to one O(E) rebuild at the next ArgmaxGainID. Callers that
// know every upcoming argmax without peeking the heap — above all the
// warm-start replay, which re-verifies a remembered selection against the
// maintained gains — delete through here; similarities, gains and the
// deletion bitset stay exactly as maintained as with DeleteEdgeID.
//
//tpp:hotpath
func (ix *Index) DeleteEdgeIDNoHeap(id graph.EdgeID) int {
	ix.heapDirty = true
	return ix.DeleteEdgeID(id)
}

// DeleteEdge is DeleteEdgeID keyed by edge; unknown edges are a no-op.
func (ix *Index) DeleteEdge(p graph.Edge) int {
	id := ix.in.ID(p)
	if id == graph.NoEdge {
		return 0
	}
	return ix.DeleteEdgeID(id)
}

// Reset revives every instance and restores the build-time gains, heap and
// per-target similarities, clearing all recorded deletions. It costs
// O(E + instances) — far cheaper than the subgraph enumeration NewIndex
// performs — which is what makes one index reusable across repeated
// selection runs on the same graph, targets and pattern.
func (ix *Index) Reset() {
	if ix.nDeleted == 0 {
		return
	}
	clear(ix.deleted)
	ix.nDeleted = 0
	// Build-time gain of an edge is exactly its CSR row length.
	for id := range ix.gain {
		ix.gain[id] = ix.instStart[id+1] - ix.instStart[id]
	}
	for i := range ix.perTarget {
		ix.perTarget[i] = 0
	}
	for i := range ix.inst {
		in := &ix.inst[i]
		in.dead = false
		ix.perTarget[in.target]++
	}
	ix.alive = len(ix.inst)
	ix.heapDirty = true // restored lazily by the next ArgmaxGainID
}

// AppendCandidateIDs appends the Lemma 5 restricted protector set — every
// edge currently participating in at least one alive target subgraph — to
// buf in ascending id (canonical) order and returns it. A deleted edge
// always has zero gain, so the gain filter alone is the full condition.
// With a reused buf the iteration allocates nothing.
//
//tpp:hotpath
func (ix *Index) AppendCandidateIDs(buf []graph.EdgeID) []graph.EdgeID {
	for id := range ix.gain {
		if ix.gain[id] > 0 {
			buf = append(buf, graph.EdgeID(id))
		}
	}
	return buf
}

// CandidateEdges returns the Lemma 5 restricted protector set as edges, in
// canonical order. Edges outside this set have zero marginal gain forever
// (monotone decrease), so greedy never needs to inspect them.
func (ix *Index) CandidateEdges() []graph.Edge {
	ids := ix.AppendCandidateIDs(make([]graph.EdgeID, 0, ix.in.NumEdges()))
	return ix.in.Edges(ids)
}

// AllTouchedEdges returns every edge that participated in any instance at
// build time (alive or not), in canonical order. This is the paper's W-edge
// universe used by the RDT baseline — exactly the interned universe.
func (ix *Index) AllTouchedEdges() []graph.Edge {
	out := make([]graph.Edge, ix.in.NumEdges())
	for id := range out {
		out[id] = ix.in.Edge(graph.EdgeID(id))
	}
	return out
}

// InstancesOfTarget returns copies of the alive instances owned by target
// ti, for inspection and tests.
func (ix *Index) InstancesOfTarget(ti int) []Instance {
	var out []Instance
	for i := range ix.inst {
		in := &ix.inst[i]
		if in.dead || int(in.target) != ti {
			continue
		}
		edges := make([]graph.Edge, in.ne)
		for j, id := range in.edges[:in.ne] {
			edges[j] = ix.in.Edge(id)
		}
		out = append(out, Instance{Target: in.target, Edges: edges})
	}
	return out
}

// ArgmaxGainID returns the id of the undeleted edge with the highest gain —
// ties broken by id, i.e. canonical edge order — plus its gain. It is a
// heap peek: O(1), allocation-free; the O(log E) maintenance happened in
// DeleteEdgeID. ok is false when every remaining gain is zero.
//
//tpp:hotpath
func (ix *Index) ArgmaxGainID() (best graph.EdgeID, bestGain int, ok bool) {
	if ix.heapDirty {
		ix.heapInit()
	}
	if len(ix.heap) == 0 {
		return 0, 0, false
	}
	top := ix.heap[0]
	if g := ix.gain[top]; g > 0 {
		return top, int(g), true
	}
	return 0, 0, false
}

// ArgmaxGain is ArgmaxGainID keyed by edge.
func (ix *Index) ArgmaxGain() (best graph.Edge, bestGain int, ok bool) {
	id, g, ok := ix.ArgmaxGainID()
	if !ok {
		return graph.Edge{}, 0, false
	}
	return ix.in.Edge(id), g, true
}

// ---------------------------------------------------------------------------
// Indexed max-heap over gains: heap[] holds touched edge ids ordered by
// (gain desc, id asc); heapPos[] is the inverse permutation so a gain
// decrease can be fixed in place with a sift-down.

// heapBetter reports whether a outranks b.
//
//tpp:hotpath
func (ix *Index) heapBetter(a, b graph.EdgeID) bool {
	ga, gb := ix.gain[a], ix.gain[b]
	if ga != gb {
		return ga > gb
	}
	return a < b
}

// heapInit (re)builds the heap over the whole interned universe in O(E) and
// clears the dirty flag. This is the heap-restore kernel behind the lazy
// maintenance contract: any number of Reset / DeleteEdgeIDNoHeap / apply
// rewires cost one rebuild at the next peek. Steady state reuses the
// existing arrays, so a restore allocates nothing.
//
//tpp:hotpath
func (ix *Index) heapInit() {
	if cap(ix.heap) < len(ix.gain) {
		//lint:hotalloc-ok grows only when the universe does; restores reuse capacity
		ix.heap = make([]graph.EdgeID, len(ix.gain))
	}
	ix.heap = ix.heap[:len(ix.gain)]
	for id := range ix.gain {
		ix.heap[id] = graph.EdgeID(id)
		ix.heapPos[id] = int32(id)
	}
	ix.heapDirty = false // before the sift-downs: heapSwap may run now
	for i := len(ix.heap)/2 - 1; i >= 0; i-- {
		ix.heapSiftDown(i)
	}
}

//tpp:hotpath
func (ix *Index) heapSwap(i, j int) {
	h := ix.heap
	h[i], h[j] = h[j], h[i]
	ix.heapPos[h[i]] = int32(i)
	ix.heapPos[h[j]] = int32(j)
}

//tpp:hotpath
func (ix *Index) heapSiftDown(i int) {
	n := len(ix.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && ix.heapBetter(ix.heap[r], ix.heap[l]) {
			best = r
		}
		if !ix.heapBetter(ix.heap[best], ix.heap[i]) {
			return
		}
		ix.heapSwap(i, best)
		i = best
	}
}

// MemFootprint returns the approximate resident byte footprint of the
// index: the instance table, the CSR incidence arrays, the gain/heap/bitset
// state and the interned edge table, apply-path scratch included (a churny
// session holds that capacity between deltas). The estimate feeds the
// session tier's memory budget.
func (ix *Index) MemFootprint() int64 {
	const instBytes = 24 // indexedInstance: int32 + [4]EdgeID + uint8 + bool, padded
	b := int64(cap(ix.targets)) * 8
	b += ix.in.MemFootprint()
	b += int64(cap(ix.inst)) * instBytes
	b += int64(cap(ix.instStart))*4 + int64(cap(ix.instIDs))*4
	b += int64(cap(ix.gain))*4 + int64(cap(ix.deleted))*8
	b += int64(cap(ix.perTarget)) * 8
	b += int64(cap(ix.heap))*4 + int64(cap(ix.heapPos))*4
	sc := &ix.sc
	b += int64(cap(sc.drop)) + int64(cap(sc.enum)) + int64(cap(sc.killed))
	b += int64(cap(sc.newIdx)) * 8
	b += int64(cap(sc.insertedNew)) * 8
	b += int64(cap(sc.oldGain))*4 + int64(cap(sc.remapID))*4 + int64(cap(sc.fin))*4
	b += (int64(cap(sc.kept)) + int64(cap(sc.extras)) + int64(cap(sc.touched))) * 8
	for _, bt := range sc.byTarget {
		b += 24 + int64(cap(bt))*24 // rawInstance ≈ indexedInstance
	}
	b += int64(cap(sc.byTarget)) * 24
	return b
}
