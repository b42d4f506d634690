package tpp

// Session memory accounting for the serving tier (cmd/tppd): each
// resident session reports an approximate byte footprint so a memory
// budget can drive admission control and LRU spill of cold sessions
// to their durable snapshots. The estimate counts the state a spill
// actually releases — the graphs, the motif index and the warm-start
// selection — using the same sizing philosophy as the snapshot encoder
// (reachable payload bytes, not Go object headers).

// sessionBaseBytes covers the fixed per-session overhead the slice sums
// below do not see: the Protector itself, the Problem, channel and atomic
// state. Small against any real session; it keeps even an empty session's
// footprint honest (and gives the daemon a floor for validating -mem-budget
// against "smaller than one empty session").
const sessionBaseBytes = 512

// MinSessionBytes is the smallest footprint any session can report — the
// floor a serving tier's memory budget must clear to admit even
// one empty session (cmd/tppd validates -mem-budget against it).
const MinSessionBytes = sessionBaseBytes

// MemFootprint returns the approximate resident byte footprint of the
// session: the original graph, the cached phase-1 graph when one is built,
// the motif index and the warm-start selection state.
//
// MemFootprint is NOT safe concurrently with Run, Apply or Snapshot; the
// caller serialises it like any other session operation (cmd/tppd holds the
// session's record slot).
func (pr *Protector) MemFootprint() int64 {
	b := int64(sessionBaseBytes)
	b += pr.problem.G.MemFootprint()
	b += int64(cap(pr.problem.Targets)) * 8
	if pr.phase1 != nil && pr.phase1 != pr.problem.G {
		b += pr.phase1.MemFootprint()
	}
	if pr.ix != nil {
		b += pr.ix.MemFootprint()
	}
	ws := &pr.warm
	b += (int64(cap(ws.protectors)) + int64(cap(ws.touched)) + int64(cap(ws.mergeBuf))) * 8
	b += int64(cap(ws.gains)) * 8
	b += (int64(cap(ws.ids)) + int64(cap(ws.touchedIDs))) * 4
	return b
}
