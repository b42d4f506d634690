package tpp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Session snapshot and restore — the tpp half of the durability layer
// (internal/durable owns the byte format and the files; this file owns what
// a session's persistent state IS).
//
// A SessionState captures everything a Protector cannot recompute: the
// original graph (rebuilt from the session's phase-1 graph and targets),
// the target list in priority order, the resolved session
// options, the warm-start selection snapshot and the observability
// counters. The motif index is deliberately NOT part of the state — it is
// a pure function of (graph, pattern, targets) and rebuilding it on
// Restore is both simpler and self-verifying: the snapshot records cheap
// invariants of the live index (candidate universe size, instance count,
// total similarity, a CRC over the reset-state gain table) and Restore
// fails with ErrStateMismatch if the rebuilt index disagrees, so a
// corrupted or stale snapshot can never silently serve wrong selections.

// ErrStateMismatch is returned by Restore when the motif index rebuilt from
// the snapshot's graph and targets does not reproduce the recorded
// invariants — the snapshot is internally inconsistent (bit rot, a torn
// write that slipped past framing, or a version skew bug) and the caller
// should quarantine it rather than serve from it.
var ErrStateMismatch = errors.New("tpp: restored index contradicts snapshot invariants")

// SessionState is the complete persistent state of a Protector session.
// Snapshot builds a fresh Graph but borrows the session's live Targets and
// warm-selection slices (see Snapshot); Restore copies what it keeps.
type SessionState struct {
	// Resolved session options (the settings New applied). Progress
	// callbacks are per-process and do not persist.
	Pattern  motif.Pattern
	Method   Method
	Division Division
	Budget   int
	Engine   Engine
	Scope    Scope
	Workers  int
	Seed     int64
	WarmOff  bool

	// Graph is the original graph, target links included. Targets is the
	// target list in protection-priority order.
	Graph   *graph.Graph
	Targets []graph.Edge

	// Warm is the warm-start selection snapshot, nil when the session has
	// none worth persisting (never ran, invalidated, or warm-start off).
	Warm *WarmSelection

	// Observability counters, so a rehydrated session's stats view
	// continues where the live one stopped.
	WarmRuns      int64
	ColdRuns      int64
	WarmFallbacks int64
	DeltasApplied int64

	// Index records the live index's invariants, nil when the session had
	// not built one (Restore then defers the build to the first Run,
	// exactly like a fresh session).
	Index *IndexInvariants
}

// WarmSelection is the persistent form of the warm-start engine's state:
// the remembered protector sequence with its realised per-step gains, the
// accumulated touched-edge set, and whether the remembered run stopped with
// every gain zero. Interner ids are deliberately absent — they are derived
// state, re-resolved against the rebuilt index on first use.
type WarmSelection struct {
	Exhausted  bool
	Protectors []graph.Edge
	Gains      []int
	Touched    []graph.Edge
}

// IndexInvariants are the cheap integrity checks recorded alongside a
// snapshot and re-verified after the restore-time index rebuild.
type IndexInvariants struct {
	// Universe is the interned candidate-edge count, Instances the
	// enumerated target-subgraph count, TotalSimilarity s(∅, T) — all in
	// the index's reset state.
	Universe        int
	Instances       int
	TotalSimilarity int
	// GainCRC is a CRC-32C over the reset-state gain table in interner id
	// order, each gain as a little-endian uint32.
	GainCRC uint32
}

// castagnoli is the CRC-32C table shared with internal/durable's framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// gainChecksum folds the full gain table (interner id order) into a CRC-32C.
// The index must be in its reset state: gains after deletions are run-local.
func gainChecksum(ix *motif.Index) uint32 {
	var crc uint32
	var b [4]byte
	for id := 0; id < ix.Interner().NumEdges(); id++ {
		binary.LittleEndian.PutUint32(b[:], uint32(ix.GainID(graph.EdgeID(id))))
		crc = crc32.Update(crc, castagnoli, b[:])
	}
	return crc
}

func invariantsOf(ix *motif.Index) *IndexInvariants {
	return &IndexInvariants{
		Universe:        ix.Interner().NumEdges(),
		Instances:       ix.NumInstances(),
		TotalSimilarity: ix.TotalSimilarity(),
		GainCRC:         gainChecksum(ix),
	}
}

// Snapshot captures the session's persistent state. It serialises with Run
// and Apply on the session's run slot (honouring ctx while waiting), resets
// the cached index so the recorded invariants describe the canonical reset
// state, and rebuilds the original graph (phase 1 plus the target links) as
// the state's Graph, so the snapshot format stays the original graph's. The
// state BORROWS the session's target list and warm-selection slices: the
// caller must finish encoding it before the session's next Apply or Run, or
// clone first. cmd/tppd snapshots while holding the session's record slot,
// which guarantees exactly that window.
func (pr *Protector) Snapshot(ctx context.Context) (*SessionState, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case pr.runSlot <- struct{}{}:
		defer func() { <-pr.runSlot }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	st := &SessionState{
		Pattern:  pr.base.pattern,
		Method:   pr.base.method,
		Division: pr.base.division,
		Budget:   pr.base.budget,
		Engine:   pr.base.engine,
		Scope:    pr.base.scope,
		Workers:  pr.base.workers,
		Seed:     pr.base.seed,
		WarmOff:  pr.base.warmOff,

		Graph:   pr.problem.original(),
		Targets: pr.problem.Targets,

		WarmRuns:      pr.warmRuns.Load(),
		ColdRuns:      pr.coldRuns.Load(),
		WarmFallbacks: pr.warmFallbacks.Load(),
		DeltasApplied: pr.deltasApplied.Load(),
	}
	if pr.ix != nil {
		// Reset restores the gain table to its post-build state, the only
		// state a rebuilt index can be compared against. Every Run resets
		// the index before selecting anyway, so this is behaviour-neutral.
		pr.ix.Reset()
		st.Index = invariantsOf(pr.ix)
	}
	if pr.warm.valid {
		st.Warm = &WarmSelection{
			Exhausted:  pr.warm.exhausted,
			Protectors: pr.warm.protectors,
			Gains:      pr.warm.gains,
			Touched:    pr.warm.touched,
		}
	}
	return st, nil
}

// Restore reconstructs a Protector from a snapshot: it re-validates the
// options and the targets-against-graph integrity (through the same
// settings.validate and NewProblem a fresh session passes), rebuilds the
// motif index when the snapshot recorded one, and fails with
// ErrStateMismatch if the rebuild contradicts the recorded invariants.
// NewProblem derives the session's phase-1 graph from st.Graph and copies
// the targets, and the warm-selection slices are copied too, so st is never
// retained and one decoded state could be restored twice.
//
// The restored session is observationally identical to the one Snapshot
// saw: same selections (warm or cold), same warm-replay behaviour, same
// counter values.
func Restore(st *SessionState) (*Protector, error) {
	s := settings{
		pattern:  st.Pattern,
		method:   st.Method,
		division: st.Division,
		budget:   st.Budget,
		engine:   st.Engine,
		scope:    st.Scope,
		workers:  st.Workers,
		seed:     st.Seed,
		warmOff:  st.WarmOff,
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	problem, err := NewProblem(st.Graph, st.Pattern, st.Targets)
	if err != nil {
		return nil, err
	}
	pr := &Protector{
		problem: problem,
		base:    s,
		runSlot: make(chan struct{}, 1),
	}
	pr.warmRuns.Store(st.WarmRuns)
	pr.coldRuns.Store(st.ColdRuns)
	pr.warmFallbacks.Store(st.WarmFallbacks)
	pr.deltasApplied.Store(st.DeltasApplied)
	if st.Index != nil {
		// Rebuild eagerly along Run's exact build path, then hold it against
		// the recorded invariants: a snapshot whose graph or targets drifted
		// from the index it described must not serve.
		start := time.Now()
		ix, err := motif.NewIndexWorkers(problem.G, problem.Pattern, problem.Targets, normalizeWorkers(s.workers))
		if err != nil {
			return nil, err
		}
		pr.ix = ix
		pr.indexBuilds.Add(1)
		pr.indexBuildTime.Add(int64(time.Since(start)))
		if got := invariantsOf(ix); *got != *st.Index {
			return nil, fmt.Errorf("%w: rebuilt (universe=%d instances=%d similarity=%d gaincrc=%08x), recorded (universe=%d instances=%d similarity=%d gaincrc=%08x)",
				ErrStateMismatch,
				got.Universe, got.Instances, got.TotalSimilarity, got.GainCRC,
				st.Index.Universe, st.Index.Instances, st.Index.TotalSimilarity, st.Index.GainCRC)
		}
	}
	if st.Warm != nil && st.Index != nil {
		if len(st.Warm.Gains) != len(st.Warm.Protectors) {
			return nil, fmt.Errorf("%w: warm selection has %d gains for %d protectors",
				ErrStateMismatch, len(st.Warm.Gains), len(st.Warm.Protectors))
		}
		pr.warm = warmState{
			valid:      true,
			exhausted:  st.Warm.Exhausted,
			protectors: append([]graph.Edge(nil), st.Warm.Protectors...),
			gains:      append([]int(nil), st.Warm.Gains...),
			touched:    append([]graph.Edge(nil), st.Warm.Touched...),
		}
	}
	return pr, nil
}
