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
//
// A build or apply enumerates into a flat per-worker instance arena and
// interns through an open-addressed table; that throwaway scratch belongs
// to the process, not to any Index: a package-level sync.Pool holds at most
// one per concurrently running build or apply, each at most
// maxPooledScratch bytes, and no Index's MemFootprint counts it.
type Index struct {
	pattern Pattern
	targets []graph.Edge
	in      *graph.Interner

	inst []indexedInstance

	// CSR incidence table: instIDs[instStart[id]:instStart[id+1]] are the
	// instances containing edge id. Only a rewire (build or apply) writes
	// it; selection never mutates it. The interned universe is exactly the
	// touched edges (the paper's W-edge set), so every id has at least one
	// incidence.
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
	// edges sink with gain 0 and ArgmaxGainID stops at a zero top.
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

// rawInstance is a worker-arena enumeration record, merged into the index
// deterministically by target order. It stores packed edge keys
// (graph.PackEdge), not ids: the edge universe is only known once every
// instance has been enumerated. A full build's dedup pass (fill) then
// overwrites each key with its dedup-table slot, which the merge resolves
// to the edge's id.
type rawInstance struct {
	keys [4]uint64
	ne   uint8
}

// NewIndexWorkers is NewIndex with an explicit enumeration worker count
// (<= 0 selects GOMAXPROCS). Targets are sharded across the workers with
// per-worker instance arenas merged in target order, so the resulting
// index — and every selection made from it — is identical for any worker
// count.
func NewIndexWorkers(g *graph.Graph, pattern Pattern, targets []graph.Edge, workers int) (*Index, error) {
	bs := getBuildScratch()
	defer putBuildScratch(bs)
	return newIndexScratch(g, pattern, targets, workers, bs)
}

// newIndexScratch is NewIndexWorkers over caller-owned build scratch.
func newIndexScratch(g *graph.Graph, pattern Pattern, targets []graph.Edge, workers int, bs *buildScratch) (*Index, error) {
	start := time.Now()
	for _, t := range targets {
		if g.HasEdgeE(t) {
			return nil, fmt.Errorf("motif: target %v still present in graph; remove all targets (phase 1) before indexing", t)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(targets)))

	ix := &Index{
		pattern: pattern,
		targets: append([]graph.Edge(nil), targets...),
	}

	bs.idx = scratchSlice(bs.idx, len(targets))
	for ti := range bs.idx {
		bs.idx[ti] = ti
	}
	enumerateInto(g, pattern, targets, workers, bs)

	ix.build(bs, g.NumEdges())
	ix.stats = BuildStats{Workers: workers, Instances: len(ix.inst), Elapsed: time.Since(start)}
	return ix, nil
}

// enumerateInto enumerates the targets named by bs.idx (ascending) into
// the workers' instance arenas, recording in bs.spans[i] where the
// instances of target bs.idx[i] landed. The targets are sharded across
// workers claiming positions off an atomic cursor (reads of g are
// concurrency-safe). Worker count never changes the per-target instance
// sets, only who finds them, so a merge reading the spans in order is
// deterministic; with one worker the arena is already in target order.
// Both the full build and the incremental apply (touched targets only)
// enumerate through here.
func enumerateInto(g *graph.Graph, pattern Pattern, targets []graph.Edge, workers int, bs *buildScratch) {
	workers = max(1, min(workers, len(bs.idx)))
	bs.spans = scratchSlice(bs.spans, len(bs.idx))
	if len(bs.workers) < workers {
		bs.workers = append(bs.workers, make([]enumWorker, workers-len(bs.workers))...)
	}
	for w := range bs.workers {
		bs.workers[w].arena = bs.workers[w].arena[:0]
	}
	// Each worker owns one arena and one kernel Scratch for its whole
	// shard, warm from earlier builds when bs came from the pool, so the
	// enumeration allocates nothing per target or per instance.
	run := func(w int, next func() int) {
		wk := &bs.workers[w]
		visit := wk.add
		for i := next(); i < len(bs.idx); i = next() {
			lo := len(wk.arena)
			EnumerateTargetScratch(g, pattern, targets[bs.idx[i]], &wk.sc, visit)
			bs.spans[i] = instSpan{w: int32(w), lo: int32(lo), hi: int32(len(wk.arena))}
		}
	}
	if workers == 1 {
		i := -1
		run(0, func() int { i++; return i })
		return
	}
	var cursor atomic.Int64
	claim := func() int { return int(cursor.Add(1)) - 1 }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w, claim)
		}()
	}
	wg.Wait()
}

// build wires the index's entire flat state — interned edge universe,
// merged instance table, CSR incidences, gains, deletion bitset and gain
// heap — from the instance arenas of a full enumeration of a graph with
// graphEdges edges. Only newIndexScratch calls it; ApplyMutation reaches the
// same state through wireIncremental, and the parity suites pin the two
// against each other. The built state starts fully alive.
func (ix *Index) build(bs *buildScratch, graphEdges int) {
	// Intern the touched edge universe: exactly the edges appearing in some
	// instance (the paper's W-edge set). One pass dedups the incidences in
	// an open-addressed table of packed keys, replacing each incidence's key
	// by its slot and counting each edge's gain there; only the W distinct keys
	// are then sorted, so ids keep canonical order. The graph's adjacency
	// is never iterated wholesale, which keeps index construction cheap on
	// large sparse graphs.
	total := 0
	incidences := 0
	for i := range bs.spans {
		for _, r := range bs.instances(i) {
			incidences += int(r.ne)
		}
		total += bs.spans[i].len()
	}
	// W <= min(incidences, graphEdges), so the table is at most three
	// quarters full and a probe always ends at an empty slot.
	size := 2
	for 3*size < 4*min(incidences, graphEdges) {
		size <<= 1
	}
	shift := 64 - bits.TrailingZeros(uint(size))
	bs.keys = scratchSlice(bs.keys, size) // 0 = empty: PackEdge never yields it
	clear(bs.keys)
	bs.count = scratchSlice(bs.count, size) // per slot: the edge's gain, then its id
	clear(bs.count)
	// The interner retains packed, so it is the index's, not scratch.
	packed := bs.fill(make([]uint64, 0, min(incidences, graphEdges)), shift)
	slices.Sort(packed)
	ix.in = graph.NewInternerFromPacked(packed)
	ix.gain = make([]int32, len(packed))
	count := bs.count
	for id, k := range packed {
		s := probe(bs.keys, k, shift)
		ix.gain[id] = count[s]
		count[s] = int32(id)
	}

	// Deterministic merge: instances land in target order regardless of
	// which worker enumerated them, each edge resolved to its id by one
	// read of the slot fill left in its place.
	ix.inst = make([]indexedInstance, 0, total)
	ix.perTarget = make([]int, len(ix.targets))
	ix.alive = total
	for i, ti := range bs.idx {
		buf := bs.instances(i)
		for _, r := range buf {
			inst := indexedInstance{target: int32(ti), ne: r.ne}
			for j, s := range r.keys[:r.ne] {
				inst.edges[j] = graph.EdgeID(count[s])
			}
			ix.inst = append(ix.inst, inst)
		}
		ix.perTarget[ti] = len(buf)
	}

	ix.wireFlat(bs)
}

// fill is the dedup pass of build: every incidence of every enumerated
// instance is probed into bs.keys (cleared, len a power of two, indexed by
// the top bits of a Fibonacci hash with the given shift) and counted in
// bs.count, and its key in the arena is replaced by its table slot; each
// first-seen key is appended to packed, which is returned.
//
//tpp:hotpath
func (bs *buildScratch) fill(packed []uint64, shift int) []uint64 {
	keys, count := bs.keys, bs.count
	for i := range bs.spans {
		arena := bs.instances(i)
		for x := range arena {
			r := &arena[x]
			for j, k := range r.keys[:r.ne] {
				s := probe(keys, k, shift)
				if keys[s] == 0 {
					if 4*len(packed) >= 3*len(keys) {
						panic("motif: instance edges outnumber the graph's edges")
					}
					keys[s] = k
					packed = append(packed, k)
				}
				count[s]++
				r.keys[j] = uint64(s)
			}
		}
	}
	return packed
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
// as CSR row lengths). Shared by the full builder and ApplyMutation; a
// rewire reuses the capacity of the arrays it replaces, and the CSR fill
// cursor is build scratch.
func (ix *Index) wireFlat(bs *buildScratch) {
	ne := ix.in.NumEdges()
	ix.deleted = scratchSlice(ix.deleted, (ne+63)/64)
	clear(ix.deleted)
	ix.nDeleted = 0
	ix.instStart = scratchSlice(ix.instStart, ne+1)
	ix.instStart[0] = 0
	for id := 0; id < ne; id++ {
		ix.instStart[id+1] = ix.instStart[id] + ix.gain[id]
	}
	ix.instIDs = scratchSlice(ix.instIDs, int(ix.instStart[ne]))
	cursor := scratchSlice(bs.cursor, ne)
	bs.cursor = cursor
	copy(cursor, ix.instStart[:ne])
	for i := range ix.inst {
		inst := &ix.inst[i]
		for _, id := range inst.edges[:inst.ne] {
			ix.instIDs[cursor[id]] = int32(i)
			cursor[id]++
		}
	}

	ix.heapPos = scratchSlice(ix.heapPos, ne)
	ix.heapDirty = true // restored lazily by the next ArgmaxGainID
}

// Targets returns a copy of the current target list. Target lists are
// mutable now that ApplyMutation edits them in place, so the internal slice
// is never handed out; callers may keep or modify the copy freely.
func (ix *Index) Targets() []graph.Edge {
	return append([]graph.Edge(nil), ix.targets...)
}

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
// session tier's memory budget. Build scratch is not counted: it belongs to
// the process (see Index).
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
	return b
}
