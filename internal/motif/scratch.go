package motif

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// buildScratch is the throwaway working memory of one index build or one
// incremental apply: the per-worker instance arenas the enumeration fills,
// the open-addressed dedup table the builder interns through, and the CSR
// fill cursor. Nothing in it outlives the call that took it — the arrays an
// Index keeps (instances, CSR table, gains, heap, the interner's packed
// keys) are allocated for the Index itself — so one scratch serves any
// sequence of builds and applies, on any session, one at a time. Every
// field is resized and cleared (or overwritten) at its point of use.
type buildScratch struct {
	workers []enumWorker // one per enumeration worker; arenas truncated per use
	idx     []int        // targets to enumerate, ascending
	spans   []instSpan   // spans[i]: where target idx[i]'s instances landed

	keys   []uint64 // open-addressed table of packed edge keys; 0 = empty
	count  []int32  // per table slot: the edge's gain, then its id
	cursor []int32  // wireFlat's per-edge CSR fill position
}

// enumWorker is one enumeration worker's state: the flat arena its
// targets' instances are appended to, in the order it enumerates them, and
// the kernel's merge-join scratch.
type enumWorker struct {
	arena []rawInstance
	sc    Scratch
}

// add appends one visited instance to the worker's arena. It is the visit
// callback of every enumeration an index build or apply runs. A full arena
// at least doubles: append alone grows large slices by about 1.25x, so a
// cold arena would allocate several times its final size on the way up.
//
//tpp:hotpath
func (w *enumWorker) add(edges []graph.Edge) {
	if len(w.arena) == cap(w.arena) {
		w.arena = slices.Grow(w.arena, max(len(w.arena), 256))
	}
	r := rawInstance{ne: uint8(len(edges))}
	for j, e := range edges {
		r.keys[j] = graph.PackEdge(e)
	}
	w.arena = append(w.arena, r)
}

// instSpan locates one target's instances: workers[w].arena[lo:hi].
type instSpan struct{ w, lo, hi int32 }

func (sp instSpan) len() int { return int(sp.hi - sp.lo) }

// instances returns the instances of the i-th enumerated target, bs.idx[i].
func (bs *buildScratch) instances(i int) []rawInstance {
	sp := bs.spans[i]
	return bs.workers[sp.w].arena[sp.lo:sp.hi]
}

// bytes is the scratch's retained capacity in bytes.
func (bs *buildScratch) bytes() int {
	const rawBytes = 40 // rawInstance: [4]uint64 + uint8, padded
	b := cap(bs.idx)*8 + cap(bs.spans)*12
	b += cap(bs.keys)*8 + (cap(bs.count)+cap(bs.cursor))*4
	for i := range bs.workers {
		w := &bs.workers[i]
		b += cap(w.arena) * rawBytes
		b += (cap(w.sc.cn) + cap(w.sc.cn2)) * 4
		b += (cap(w.sc.bucket) + cap(w.sc.link)) * 8
	}
	return b
}

// maxPooledScratch caps the build scratch handed back to buildPool: a
// scratch grown past it by one very large build is left to the garbage
// collector rather than pinned for the next, typically smaller, one. A
// 2,000-node session with 512 Pentagon targets needs about 0.6 MiB.
const maxPooledScratch = 16 << 20

// buildPool holds idle build scratch for the whole process: at most one
// per concurrently running build or apply, each at most maxPooledScratch.
// It belongs to no session and is counted in no Index's MemFootprint.
var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

func getBuildScratch() *buildScratch { return buildPool.Get().(*buildScratch) }

func putBuildScratch(bs *buildScratch) {
	if bs.bytes() <= maxPooledScratch {
		buildPool.Put(bs)
	}
}
