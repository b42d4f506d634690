package main

// Durability wiring: how the daemon uses internal/durable, which keeps
// each session as one append-only log file in -data-dir.
//
// Lifecycle, with -data-dir set:
//
//   - create      a new log holding the initial snapshot, on disk before
//     the id is handed to the client
//   - delta       appended (and under -wal-sync fsynced) to the log before
//     the ack; every -wal-compact deltas a fresh snapshot is
//     appended, which bounds replay
//   - spill       LRU reclaim and TTL eviction drop the in-memory session;
//     the next request for the id rehydrates it from the log.
//     Only a dirty session (a protect ran since its last
//     snapshot) appends a final snapshot first
//   - degraded    a failed append or compaction leaves the session
//     memory-only; its next delta or spill first rewrites the
//     log whole from memory, and a delta that cannot be
//     persisted that way is refused, not applied
//   - shutdown    Close spills every session the same way, in sorted-id
//     order (bounded per-session wait); reclaim, TTL eviction and
//     shutdown all go through one evict
//   - lazy load   a lookup that misses the table claims the id (a record
//     whose slot is already held) and reads its log outside the
//     table lock: concurrent requests for the id wait on the
//     claim and read the log once, loads of other ids never wait
//   - delete      removes the log with the session
//   - boot        ConfigureDurability loads every persisted session; those
//     that fail recovery are quarantined (renamed aside) and the
//     server keeps serving without them
//
// Protect runs are deliberately not logged: a selection is a pure function
// of the session state the log already captures, so replay reproduces it
// bit-identically (the warm/cold engine contract), and the warm-start cache
// and run counter are persisted by the next snapshot rather than per run.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"slices"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/tpp"
)

// ConfigureDurability attaches the persistence layer and loads every
// persisted session back into memory. From then on new sessions are
// snapshotted at creation, committed deltas are logged before the ack,
// LRU reclaim, TTL eviction and shutdown spill sessions to their logs
// instead of discarding state, and a lookup that misses the table loads
// the id's log before it 404s. memBudget caps the resident session bytes
// (0 = unlimited); it lives here because only a durable store can take a
// spill. Sessions that fail recovery (corrupt snapshot, corrupt log,
// replay divergence) are quarantined and counted, never fatal: the server
// boots with what it can prove correct. Call once, before Handler and
// before any session exists.
func (s *Server) ConfigureDurability(ctx context.Context, store *durable.Store, memBudget int64) (restored, quarantined int, err error) {
	s.store = store
	s.budget = shard.NewBudget(memBudget)
	ids, err := store.IDs()
	if err != nil {
		return 0, 0, fmt.Errorf("tppd: scanning data dir: %w", err)
	}
	for _, id := range ids {
		rec, _ := s.find(id) // a claim: the table is empty and ids are unique
		// A load accounts its session, so boot refills the budget and may
		// itself spill if the logs outgrew -mem-budget since the last run.
		switch err := s.loadSession(ctx, rec); {
		case err == nil:
			restored++
			<-rec.slot
		case !errors.Is(err, fs.ErrNotExist):
			quarantined++
		}
	}
	return restored, quarantined, nil
}

// loadSession fills the claimed record rec (see find) from its log and
// accounts its bytes, keeping its slot held. It runs outside the table
// lock, so a slow log read delays only the requests for this id. On
// failure it removes the claim, so requests waiting on its slot find it
// gone: an error wrapping fs.ErrNotExist means the id has no log, any
// other means recovery or replay failed and the log was quarantined.
func (s *Server) loadSession(ctx context.Context, rec *sessionRecord) error {
	snap, entries, h, err := s.store.Recover(rec.id)
	if err == nil {
		if err = s.rehydrateRecord(ctx, rec, snap, entries, h); err != nil {
			h.Close()
		}
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.quarantineSession(rec.id, err)
		}
		s.remove(rec)
		<-rec.slot
		return err
	}
	s.metrics.sessionsRehydrated.Inc()
	// A load can push the table over budget and spill a colder session to
	// make room; rec itself, its slot held, is never the victim.
	s.accountSession(rec, sessionFootprint(rec))
	return nil
}

// rehydrateRecord fills rec in from a recovered snapshot + delta tail:
// restore the Protector (which rebuilds and cross-checks the motif index),
// replay the logged deltas through the same Apply path the live handlers
// used, and fold each entry's labels into the label table exactly as the
// delta handler did. It sets fields one by one and never rec.id or
// rec.slot: waiters are blocked on that slot.
func (s *Server) rehydrateRecord(ctx context.Context, rec *sessionRecord, snap *durable.SessionSnapshot, entries []durable.Entry, h *durable.Session) error {
	session, err := tpp.Restore(snap.State)
	if err != nil {
		return err
	}
	lab := labelingFrom(snap.Labels, snap.State.Graph.NumNodes())
	// The replay must not stop because the client that asked for the
	// session left: a healthy log cut short is quarantined. The stage
	// recorder rides along in the context's values.
	ctx = context.WithoutCancel(ctx)
	for _, ent := range entries {
		if len(ent.Labels) != ent.Delta.AddNodes {
			return fmt.Errorf("%w: entry seq %d carries %d labels for %d added nodes",
				durable.ErrCorruptWAL, ent.Seq, len(ent.Labels), ent.Delta.AddNodes)
		}
		rep, err := session.Apply(ctx, ent.Delta)
		if err != nil {
			return fmt.Errorf("replaying log entry seq %d: %w", ent.Seq, err)
		}
		applyDeltaLabels(lab, ent.Labels, rep)
	}
	rec.session, rec.lab = session, lab
	rec.pattern = snap.State.Pattern.String()
	rec.defaultBudget = snap.DefaultBudget
	rec.created, rec.lastUsed = snap.Created, time.Now()
	rec.runs = snap.Runs
	// Every committed delta appended exactly one frame, so the handle's
	// sequence number is the session's lifetime delta count.
	rec.deltas = int64(h.Seq())
	rec.durable = h
	return nil
}

// sessionSnapshot assembles the durable snapshot of a session: the
// Protector's persistent state wrapped with the serving metadata (labels,
// created time, run count) the record owns. The caller holds the record
// slot, which is exactly the borrow window tpp.Snapshot requires.
func (s *Server) sessionSnapshot(ctx context.Context, rec *sessionRecord, seq uint64) (*durable.SessionSnapshot, error) {
	state, err := rec.session.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &durable.SessionSnapshot{
		ID:            rec.id,
		Seq:           seq,
		Created:       rec.created,
		Runs:          rec.runs,
		DefaultBudget: rec.defaultBudget,
		Labels:        rec.lab.ToName,
		State:         state,
	}, nil
}

// snapshotSession appends a fresh snapshot to the session's log: the
// compaction of a log that reached -wal-compact deltas, and the final
// write of a dirty session's spill.
func (s *Server) snapshotSession(ctx context.Context, rec *sessionRecord) error {
	snap, err := s.sessionSnapshot(ctx, rec, rec.durable.Seq())
	if err == nil {
		err = rec.durable.Snapshot(snap)
	}
	if err != nil {
		return err
	}
	rec.dirty = false
	return nil
}

// repersist writes a degraded session's log whole again from memory: a
// fresh file holding one snapshot at its lifetime delta count, renamed over
// the log that fell behind. The caller holds the record slot.
func (s *Server) repersist(ctx context.Context, rec *sessionRecord) error {
	snap, err := s.sessionSnapshot(ctx, rec, uint64(rec.deltas))
	if err != nil {
		return err
	}
	if rec.durable, err = s.store.Rewrite(snap); err != nil {
		return err
	}
	rec.dirty = false
	return nil
}

// degrade drops a session's log handle after a failed write: the session
// serves from memory until repersist succeeds.
func (s *Server) degrade(rec *sessionRecord, what string, err error) {
	s.serverLogger().Error("tppd: "+what+" failed; session durability degraded", "session", rec.id, "error", err)
	rec.durable.Close()
	rec.durable = nil
}

// spillSession releases a session's persistence before it is dropped from
// memory; the log stays behind for rehydration. Called by evict, with the
// record slot held. A clean
// session is already reproduced bit-identically by its log, so its spill
// only closes the handle — a clean buffer is evicted without a write-back.
// A dirty one (a protect ran since its last snapshot) appends a final
// snapshot first; if that fails, only the state since the last logged
// write is lost, exactly like a crash at that point.
//
// A degraded session has no handle and its log describes an older state,
// so it is re-persisted whole. If even that fails its stale log is
// quarantined, so the next touch answers 404 rather than rehydrating a
// rolled-back session.
func (s *Server) spillSession(rec *sessionRecord) {
	switch {
	case rec.durable == nil:
		if err := s.repersist(context.Background(), rec); err != nil {
			s.quarantineSession(rec.id, fmt.Errorf("re-persisting degraded session: %w", err))
			return
		}
	case rec.dirty:
		if err := s.snapshotSession(context.Background(), rec); err != nil {
			s.serverLogger().Error("tppd: spilling session snapshot", "session", rec.id, "error", err)
		}
	}
	if err := rec.durable.Close(); err != nil {
		s.serverLogger().Error("tppd: closing session log", "session", rec.id, "error", err)
	}
	rec.durable = nil
}

// quarantineSession renames a damaged session's log aside and logs why.
func (s *Server) quarantineSession(id string, cause error) {
	s.serverLogger().Error("tppd: quarantining session", "session", id, "error", cause)
	if err := s.store.Quarantine(id); err != nil {
		s.serverLogger().Error("tppd: quarantine failed", "session", id, "error", err)
	}
}

// labelingFrom builds a session's label mapping from a label table in
// node-ID order. A table that does not name every node (a snapshot
// without one, a server-side dataset) gives the numeric labels "0"…"n-1".
func labelingFrom(names []string, n int) *graph.Labeling {
	if len(names) == n {
		names = slices.Clone(names)
	} else {
		names = make([]string, n)
		for i := range names {
			names[i] = strconv.Itoa(i)
		}
	}
	lab := &graph.Labeling{ToName: names, ToID: make(map[string]graph.NodeID, n)}
	for i, name := range names {
		lab.ToID[name] = graph.NodeID(i)
	}
	return lab
}

// serverLogger returns the configured request logger, or the process
// default.
func (s *Server) serverLogger() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}
