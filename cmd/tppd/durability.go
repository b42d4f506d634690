package main

// Durability wiring: how the daemon uses internal/durable.
//
// Lifecycle, with -data-dir set:
//
//   - create      initial snapshot + empty WAL on disk before the id is
//     handed to the client
//   - delta       appended (and under -wal-sync fsynced) to the WAL before
//     the ack; every -wal-compact entries the log folds into a
//     fresh snapshot
//   - spill       LRU reclaim and TTL eviction drop the in-memory session;
//     the files stay and the next request for the id rehydrates
//     it transparently. Only a dirty session (a protect ran
//     since its last snapshot) writes a final snapshot first; a
//     clean one just closes its WAL handle
//   - shutdown    sessionStore.close spills every session the same way,
//     in sorted-id order (bounded per-session wait); the next
//     boot replays at most -wal-compact entries per session
//   - delete      removes the files with the session
//   - boot        Rehydrate loads every persisted session: snapshot
//     decoded, WAL replayed, torn tails truncated; sessions that
//     fail recovery are quarantined (renamed aside) and the
//     server keeps serving without them
//
// Protect runs are deliberately not logged: a selection is a pure function
// of the session state the snapshot+WAL already capture, so replay
// reproduces it bit-identically (the warm/cold engine contract), and the
// warm-start cache and run counter are persisted by the next snapshot
// (compaction, or the spill of the session the run left dirty) rather
// than per run.

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/tpp"
)

// ConfigureDurability attaches the persistence layer: new sessions are
// snapshotted at creation, committed deltas are WAL-appended before the
// ack, LRU reclaim, TTL eviction and shutdown spill sessions to disk
// instead of discarding state, and an unknown session id is looked up on
// disk before it 404s. memBudget caps the resident session bytes (0 =
// unlimited); it lives here because only a durable store can take a
// spill. Call before Handler, before Rehydrate and before any session
// exists.
func (s *Server) ConfigureDurability(store *durable.Store, memBudget int64) {
	s.store = store
	s.sessions.budget = shard.NewBudget(memBudget)
	s.sessions.spill = s.spillSession
	s.sessions.wedged = func(id string) {
		s.serverLogger().Error("tppd: session wedged at shutdown; its last durable snapshot survives, its in-memory tail does not",
			"session", id)
	}
}

// Rehydrate loads every persisted session back into memory. Sessions that
// fail recovery — corrupt snapshot, corrupt WAL, replay divergence — are
// quarantined and counted, never fatal: the server boots with what it can
// prove correct. Call once, after ConfigureDurability and before the
// listener starts.
func (s *Server) Rehydrate(ctx context.Context) (restored, quarantined int, err error) {
	if s.store == nil {
		return 0, 0, fmt.Errorf("tppd: Rehydrate before ConfigureDurability")
	}
	ids, err := s.store.IDs()
	if err != nil {
		return 0, 0, fmt.Errorf("tppd: scanning data dir: %w", err)
	}
	for _, id := range ids {
		rec, lerr := s.loadSession(ctx, id)
		if lerr != nil {
			quarantined++
			continue
		}
		if rec == nil {
			continue
		}
		// Measure before publish (the record is not yet reachable, so no
		// slot is needed), account after — boot rehydration fills the
		// budget back up and may itself trigger spills if the state on
		// disk outgrew -mem-budget since the last run.
		bytes := sessionFootprint(rec)
		s.sessions.publish(rec)
		s.accountSession(rec, bytes)
		restored++
	}
	return restored, quarantined, nil
}

// getSession is the durability-aware replacement for sessionStore.acquire:
// on a miss with a store configured, it checks the disk for a spilled
// session and rehydrates it before answering. The same (nil, nil) = 404
// contract as acquire. loadMu serialises concurrent misses for the same id
// so a session is only ever rehydrated once. A rehydrated record is handed
// back already locked: its slot is taken before publish, so no concurrent
// reclaimer can spill it again before the caller gets to use it.
func (s *Server) getSession(ctx context.Context, id string) (*sessionRecord, error) {
	rec, err := s.sessions.acquire(ctx, id)
	if rec != nil || err != nil || s.store == nil {
		return rec, err
	}
	s.loadMu.Lock()
	rec, err = s.sessions.acquire(ctx, id)
	if rec != nil || err != nil {
		s.loadMu.Unlock()
		return rec, err
	}
	rec, lerr := s.loadSession(ctx, id)
	if rec != nil {
		// Accounted after publish, like boot rehydration: a lazy load can
		// push the store over budget and spill a colder session to make
		// room.
		rec.slot <- struct{}{}
		s.sessions.publish(rec)
		s.accountSession(rec, sessionFootprint(rec))
	}
	s.loadMu.Unlock()
	if lerr != nil || rec == nil {
		// Never persisted, or damaged (and now quarantined): either way the
		// id does not name a servable session.
		return nil, nil
	}
	return rec, nil
}

// loadSession recovers one session from disk. (nil, nil) means the id has
// no persisted bytes; an error means recovery or replay failed and the
// session's files were quarantined.
func (s *Server) loadSession(ctx context.Context, id string) (*sessionRecord, error) {
	if !s.store.Exists(id) {
		return nil, nil
	}
	snap, entries, h, err := s.store.Recover(id)
	if err != nil {
		s.quarantineSession(id, err)
		return nil, err
	}
	rec, err := s.rehydrateRecord(ctx, snap, entries, h)
	if err != nil {
		h.Close()
		s.quarantineSession(id, err)
		return nil, err
	}
	s.metrics.sessionsRehydrated.Inc()
	return rec, nil
}

// rehydrateRecord turns a recovered snapshot + WAL tail into a live
// session record: restore the Protector (which rebuilds and cross-checks
// the motif index), replay the logged deltas through the same Apply path
// the live handlers used, and fold each entry's labels into the label
// table exactly as the delta handler did.
func (s *Server) rehydrateRecord(ctx context.Context, snap *durable.SessionSnapshot, entries []durable.Entry, h *durable.Session) (*sessionRecord, error) {
	session, err := tpp.Restore(snap.State)
	if err != nil {
		return nil, err
	}
	lab := labelingFrom(snap.Labels, snap.State.Graph.NumNodes())
	for _, ent := range entries {
		if len(ent.Labels) != ent.Delta.AddNodes {
			return nil, fmt.Errorf("%w: entry seq %d carries %d labels for %d added nodes",
				durable.ErrCorruptWAL, ent.Seq, len(ent.Labels), ent.Delta.AddNodes)
		}
		rep, err := session.Apply(ctx, ent.Delta)
		if err != nil {
			return nil, fmt.Errorf("replaying WAL entry seq %d: %w", ent.Seq, err)
		}
		applyDeltaLabels(lab, ent.Labels, rep)
	}
	return &sessionRecord{
		id:            snap.ID,
		slot:          make(chan struct{}, 1),
		session:       session,
		lab:           lab,
		pattern:       snap.State.Pattern.String(),
		defaultBudget: snap.DefaultBudget,
		created:       snap.Created,
		lastUsed:      time.Now(),
		runs:          snap.Runs,
		// Every committed delta appended exactly one frame, so the handle's
		// sequence number is the session's lifetime delta count.
		deltas:  int64(h.Seq()),
		durable: h,
		// Seed the stat watermarks with the restored counters, or the next
		// recordSessionStats would fold the session's whole pre-restart
		// history into the aggregate metrics a second time.
		statWarm:      int64(session.WarmRuns()),
		statCold:      int64(session.ColdRuns()),
		statFallbacks: int64(session.WarmFallbacks()),
	}, nil
}

// persistNewSession writes a fresh session's initial snapshot and empty
// WAL, returning the append handle. Called from the create handler before
// the record is published.
func (s *Server) persistNewSession(ctx context.Context, rec *sessionRecord) (*durable.Session, error) {
	snap, err := s.sessionSnapshot(ctx, rec, 0)
	if err != nil {
		return nil, err
	}
	return s.store.Create(snap)
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

// compactSession folds the session's WAL into a fresh snapshot. Called
// from the delta handler once the log crosses the compaction threshold.
func (s *Server) compactSession(ctx context.Context, rec *sessionRecord) error {
	snap, err := s.sessionSnapshot(ctx, rec, rec.durable.Seq())
	if err != nil {
		return err
	}
	if err := rec.durable.Compact(snap); err != nil {
		return err
	}
	rec.dirty = false
	return nil
}

// spillSession releases a session's persistence before it is dropped from
// memory; the files stay behind for rehydration. Called (with the record
// slot held) by LRU reclaim, TTL eviction and the shutdown drain. A clean
// session is already reproduced bit-identically by snapshot + WAL, so its
// spill only closes the WAL handle — a clean buffer is evicted without a
// write-back. A dirty one (a protect ran since its last snapshot) writes a
// final snapshot first; if that fails, only the state since the last
// snapshot+WAL write is lost, exactly like a crash at that point.
//
// A session degraded to memory-only by a WAL append failure has no handle
// but kept acking deltas, so its files describe an older state: it is
// re-persisted whole (a fresh snapshot at its lifetime delta count and an
// empty WAL). If even that fails its stale files are quarantined, so the
// next touch answers 404 rather than rehydrating a rolled-back session.
func (s *Server) spillSession(rec *sessionRecord) {
	switch {
	case rec.durable == nil:
		snap, err := s.sessionSnapshot(context.Background(), rec, uint64(rec.deltas))
		if err == nil {
			rec.durable, err = s.store.Create(snap)
		}
		if err != nil {
			s.quarantineSession(rec.id, fmt.Errorf("re-persisting degraded session: %w", err))
			return
		}
	case rec.dirty:
		snap, err := s.sessionSnapshot(context.Background(), rec, rec.durable.Seq())
		if err == nil {
			err = rec.durable.Snapshot(snap)
		}
		if err != nil {
			s.serverLogger().Error("tppd: spilling session snapshot", "session", rec.id, "error", err)
		}
	}
	if err := rec.durable.Close(); err != nil {
		s.serverLogger().Error("tppd: closing session WAL", "session", rec.id, "error", err)
	}
	rec.durable = nil
}

// quarantineSession renames a damaged session's files aside and logs why.
func (s *Server) quarantineSession(id string, cause error) {
	s.serverLogger().Error("tppd: quarantining session", "session", id, "error", cause)
	if err := s.store.Quarantine(id); err != nil {
		s.serverLogger().Error("tppd: quarantine failed", "session", id, "error", err)
	}
}

// labelingFrom rebuilds a session's label mapping from the snapshot's
// label table (node-ID order). An absent table synthesises numeric labels,
// matching the server-side dataset convention.
func labelingFrom(names []string, n int) *graph.Labeling {
	lab := &graph.Labeling{ToID: make(map[string]graph.NodeID, n)}
	if len(names) == n && n > 0 {
		lab.ToName = append([]string(nil), names...)
	} else {
		lab.ToName = make([]string, n)
		for i := range lab.ToName {
			lab.ToName[i] = strconv.Itoa(i)
		}
	}
	for i, name := range lab.ToName {
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
