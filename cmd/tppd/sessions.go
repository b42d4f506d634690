package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/tpp"
)

// sessionRecord is one long-lived named protection session: a tpp.Protector
// plus the label mapping its graph was interned under. The record's slot (a
// capacity-1 channel, like tpp's run slot) serialises all HTTP work on the
// session (delta, protect, delete) and — unlike a mutex — lets waiters
// abandon the wait when their request context dies, so a deadline-bearing
// request never blocks unboundedly behind a long run. The TTL janitor only
// evicts records whose slot it can take without waiting, so an in-flight
// request is never pulled out from under its handler.
type sessionRecord struct {
	id   string
	slot chan struct{} // capacity 1: holds the session's exclusive lock
	gone bool          // evicted or deleted; holders of a stale pointer must 404

	session *tpp.Protector
	lab     *graph.Labeling
	// labBytes caches labelingFootprint(lab); 0 means not measured yet.
	// Only a delta that adds or remaps nodes changes the label table, and
	// that delta resets it.
	labBytes int64
	pattern  string
	// defaultBudget is the creation-time budget, echoed in protect
	// responses when a run does not override it (0 = critical budget).
	defaultBudget int

	created  time.Time
	lastUsed time.Time
	runs     int64
	deltas   int64

	// durable is the session's persistence handle (nil without -data-dir,
	// or after a failed append or compaction degraded the session to
	// memory-only).
	// Guarded by the record slot like everything else on the record.
	durable *durable.Session
	// dirty reports that a protect has run (successfully or not) since the
	// session's last durable snapshot, so its log no longer reproduces
	// it: the run counter and the warm-start selection live only in
	// memory. Deltas never dirty a session — each is in the log before its
	// ack. Zero at create and rehydrate (the record matches its log),
	// cleared by compaction. A clean session spills by closing its log.
	dirty bool
}

// observeService folds one completed request's slot-hold time into the
// service-time EWMA (alpha = 1/8).
func (s *Server) observeService(d time.Duration) {
	ns := int64(d)
	if ns <= 0 {
		ns = 1
	}
	for {
		old := s.ewmaNS.Load()
		nw := ns
		if old > 0 {
			nw = old + (ns-old)/8
		}
		if s.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the observed per-request service time times the queue ahead of it, spread
// over the selection slots. Before the first completion (no EWMA yet) it
// falls back to the queue-wait budget. Clamped to [1, 60].
func (s *Server) retryAfterSeconds() int {
	ewma := s.ewmaNS.Load()
	if ewma <= 0 {
		secs := int(s.queueWait / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	depth := s.waiters.Load() + 1
	wait := time.Duration(ewma) * time.Duration(depth) / time.Duration(cap(s.sem))
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// records returns every record in the table, in map order.
func (s *Server) records() []*sessionRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]*sessionRecord, 0, len(s.m))
	//lint:maporder-ok snapshot of every record; callers are order-independent or sort
	for _, rec := range s.m {
		recs = append(recs, rec)
	}
	return recs
}

// janitor periodically evicts sessions idle past the TTL. Busy sessions
// (slot held by a handler or a load) are skipped and reconsidered next
// sweep.
func (s *Server) janitor(interval time.Duration) {
	defer close(s.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			for _, rec := range s.records() {
				select {
				case rec.slot <- struct{}{}: // try-lock: busy sessions wait for the next sweep
				default:
					continue
				}
				if !rec.gone && now.Sub(rec.lastUsed) > s.ttl {
					s.evict(rec)
					s.metrics.sessionsEvicted.Inc()
				}
				<-rec.slot
			}
		}
	}
}

// evict drops rec from memory, the one way TTL eviction, budget reclaim
// and Close let a session go. With a store it spills first, so the log
// holds what the record does and the next lookup rehydrates it; the spill
// ends before the id leaves the table, so no claim for it can read a log
// still being written. The caller holds rec's slot and rec is not gone.
func (s *Server) evict(rec *sessionRecord) {
	if s.store != nil {
		s.spillSession(rec)
	}
	s.remove(rec)
}

// mintSessionID draws a fresh session id.
func mintSessionID() string {
	buf := make([]byte, 8)
	if _, err := rand.Read(buf); err != nil {
		panic(fmt.Sprintf("tppd: reading session id entropy: %v", err))
	}
	return "s-" + hex.EncodeToString(buf)
}

// publish registers rec — id and slot already set — and reports whether
// the id was fresh (false = conflict, rec not registered). Minting and
// publishing are split so the create path can persist the initial snapshot
// before the id is reachable by concurrent requests.
func (s *Server) publish(rec *sessionRecord) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[rec.id]; exists {
		return false
	}
	s.m[rec.id] = rec
	return true
}

// find returns id's record. A miss with a store configured claims the id
// instead: it inserts a record whose slot is already held, for loadSession
// to fill in or remove, and reports claimed. A claim is not in the budget
// and its slot stays held until its load ends, so the janitor, the
// reclaimer and Close never see it half-loaded.
func (s *Server) find(id string) (rec *sessionRecord, claimed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec = s.m[id]; rec != nil || s.store == nil {
		return rec, false
	}
	rec = &sessionRecord{id: id, slot: make(chan struct{}, 1)}
	rec.slot <- struct{}{}
	s.m[id] = rec
	return rec, true
}

// lookup returns the session id names, locked for exclusive use; the
// caller frees it with release (or rec.slot directly after remove). A nil
// record with nil error means the id names no session (never created,
// deleted, expired without a store, or quarantined); an error means ctx
// died waiting for the slot. A miss claims the id and loads its log, so
// concurrent requests for one id wait on its slot and read the log once,
// and no other load waits at all. A record that went while its waiter
// waited was spilled, deleted or failed to load: with a store the waiter
// looks the id up again, so a spill racing a request never answers 404.
func (s *Server) lookup(ctx context.Context, id string) (*sessionRecord, error) {
	for {
		rec, claimed := s.find(id)
		switch {
		case claimed:
			if s.loadSession(ctx, rec) != nil {
				return nil, nil
			}
			return rec, nil
		case rec == nil:
			return nil, nil
		}
		select {
		case rec.slot <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !rec.gone {
			return rec, nil
		}
		<-rec.slot
		if s.store == nil {
			return nil, nil
		}
	}
}

// release refreshes the idle clock and the LRU position, then frees the
// slot.
func (s *Server) release(rec *sessionRecord) {
	rec.lastUsed = time.Now()
	s.budget.Touch(rec.id)
	<-rec.slot
}

// remove unregisters rec from the table and the budget. The caller must
// hold rec's slot.
func (s *Server) remove(rec *sessionRecord) {
	rec.gone = true
	s.mu.Lock()
	delete(s.m, rec.id)
	s.mu.Unlock()
	s.budget.Remove(rec.id)
}

// open returns the number of records in the table, loads in flight
// included.
func (s *Server) open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ---------------------------------------------------------------------------
// HTTP wire types

// deltaRequest is one batch of session mutations against a session, in the
// session's node labels (delta schema v2: edge churn plus node churn and
// target-set edits). add_nodes labels must be new and may be referenced by
// insert and add_targets in the same delta; remove_nodes must end the delta
// isolated (all their edges removed, incident targets dropped);
// drop_targets must name current targets; add_targets must be absent
// non-target pairs (the new link is protected from the moment it exists —
// it never appears in a released graph).
type deltaRequest struct {
	Insert      [][2]string `json:"insert,omitempty"`
	Remove      [][2]string `json:"remove,omitempty"`
	AddNodes    []string    `json:"add_nodes,omitempty"`
	RemoveNodes []string    `json:"remove_nodes,omitempty"`
	AddTargets  [][2]string `json:"add_targets,omitempty"`
	DropTargets [][2]string `json:"drop_targets,omitempty"`
	TimeoutMS   int64       `json:"timeout_ms,omitempty"`
}

// deltaResponse reports one applied delta.
type deltaResponse struct {
	Inserted         int     `json:"inserted"`
	Removed          int     `json:"removed"`
	NodesAdded       int     `json:"nodes_added"`
	NodesRemoved     int     `json:"nodes_removed"`
	TargetsAdded     int     `json:"targets_added"`
	TargetsDropped   int     `json:"targets_dropped"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Targets          int     `json:"targets"`
	Incremental      bool    `json:"incremental"`
	TouchedTargets   int     `json:"touched_targets"`
	KilledInstances  int     `json:"killed_instances"`
	DroppedInstances int     `json:"dropped_instances"`
	Instances        int     `json:"instances"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

// sessionProtectRequest is a per-run override set for a session protect
// call. Omitted fields inherit the session's construction-time options
// (pointer fields distinguish "omitted" from explicit zeros, so budget 0 —
// the critical budget — remains expressible per run).
type sessionProtectRequest struct {
	Method       string `json:"method,omitempty"`
	Division     string `json:"division,omitempty"`
	Engine       string `json:"engine,omitempty"`
	Budget       *int   `json:"budget,omitempty"`
	Seed         *int64 `json:"seed,omitempty"`
	Workers      *int   `json:"workers,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	OmitReleased bool   `json:"omit_released,omitempty"`
}

// ---------------------------------------------------------------------------
// Handlers

// handleSessionCreate builds a long-lived session from the same payload as
// /v1/protect (graph + targets + options become the session's defaults).
// Nothing is enumerated yet: the motif index is built by the first protect
// call and maintained incrementally by deltas afterwards.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.withNewRecord(w, r, func(ctx context.Context, _ *protectRequest, rec *sessionRecord) reply {
		return s.createSession(ctx, rec)
	})
}

// createSession admits, persists and publishes a new record under a fresh
// id. The record's slot is held from its budget reservation until it is
// published, so no reclaimer can pick the unpublished record as a victim
// and no concurrent request can touch it half-created.
func (s *Server) createSession(ctx context.Context, rec *sessionRecord) reply {
	rec.id = mintSessionID()
	rec.slot <- struct{}{}
	defer func() { <-rec.slot }()
	// Admission control: the new session must fit the memory budget after
	// spilling every cold session the budget can give up. A create that
	// still does not fit is backpressure (429 + Retry-After), not an error —
	// resident sessions are busy or the budget is simply smaller than this
	// one session, and the client should retry or shrink.
	need := sessionFootprint(rec)
	if !s.admitSession(rec, need) {
		s.metrics.memRejections.Inc()
		b := s.budget
		return s.busy(fmt.Sprintf("session needs ~%d bytes; memory budget %d has %d resident that cannot spill now",
			need, b.Cap(), b.Used()))
	}
	// With durability on, the initial snapshot must be on disk before the
	// id is handed out: a created session that vanished across a restart
	// would break the "acked means durable" contract at its first moment.
	if s.store != nil {
		snap, err := s.sessionSnapshot(ctx, rec, 0)
		if err == nil {
			rec.durable, err = s.store.Create(snap)
		}
		if err != nil {
			s.budget.Remove(rec.id)
			s.serverLogger().Error("tppd: persisting new session", "session", rec.id, "error", err)
			return replyError(http.StatusInternalServerError, "persisting session: "+err.Error())
		}
	}
	if !s.publish(rec) {
		// Only reachable if two creates minted the same random 64-bit id.
		// The map keeps the record that won the publish, whose handle still
		// owns the files on disk — close ours, never destroy. Dropping our
		// reservation also drops the winner's entry; its next footprint
		// change re-accounts it.
		s.budget.Remove(rec.id)
		if rec.durable != nil {
			rec.durable.Close()
		}
		return replyError(http.StatusConflict, fmt.Sprintf("session %q already exists", rec.id))
	}
	s.metrics.sessionsCreated.Inc()
	annotateSession(ctx, rec.id)
	return rec.infoReply(http.StatusCreated)
}

// infoReply describes the session to the client. The caller holds rec's
// slot.
func (rec *sessionRecord) infoReply(status int) reply {
	return reply{status: status, body: newJSONBuf().sessionReply(rec)}
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	respond(w, s.withSession(r.Context(), r, func(rec *sessionRecord) reply {
		return rec.infoReply(http.StatusOK)
	}))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	respond(w, s.withSession(r.Context(), r, func(rec *sessionRecord) reply {
		// Destroy the log while still holding the slot, so a concurrent
		// request for the same id cannot rehydrate a half-deleted session:
		// it blocks on the slot until the record is gone and the log is
		// too. A session degraded to memory-only has no handle but still
		// has a log.
		var derr error
		if rec.durable != nil {
			derr = rec.durable.Destroy()
			rec.durable = nil
		} else if s.store != nil {
			derr = s.store.Remove(rec.id)
		}
		if derr != nil {
			s.serverLogger().Error("tppd: destroying session log", "session", rec.id, "error", derr)
		}
		s.remove(rec)
		s.metrics.sessionsClosed.Inc()
		return reply{status: http.StatusOK, body: newJSONBuf().deletedReply(rec.id)}
	}))
}

// handleSessionDelta applies one batch of edge insertions/removals to the
// session's graph and incrementally maintains its motif index, so the next
// protect call pays for the delta, not the graph.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	var req deltaRequest
	if !s.decode(w, r, &req, false) {
		return
	}
	s.work(w, r, req.TimeoutMS, func(ctx context.Context) reply {
		return s.withSession(ctx, r, func(rec *sessionRecord) reply {
			return s.applyDelta(ctx, rec, &req)
		})
	})
}

// applyDelta commits one delta to rec, whose slot the caller holds: apply
// it in memory, fold its node churn into the label table, log it, then
// re-account the session's footprint.
func (s *Server) applyDelta(ctx context.Context, rec *sessionRecord, req *deltaRequest) reply {
	d, err := resolveDelta(req, rec.lab)
	if err != nil {
		return failed(badRequest{err})
	}
	// A degraded session must be on disk again before it takes a delta it
	// would otherwise ack from memory alone.
	if s.store != nil && rec.durable == nil {
		if err := s.repersist(ctx, rec); err != nil {
			s.serverLogger().Error("tppd: re-persisting degraded session", "session", rec.id, "error", err)
			return replyError(http.StatusInternalServerError, "delta not applied: session cannot be persisted: "+err.Error())
		}
	}
	rep, err := rec.session.Apply(ctx, d)
	if err != nil {
		return failed(err)
	}
	// The delta committed: fold the node churn into the session's label
	// table (new labels join in ID order, the remap renames/retires the
	// rest) before anything reads it again.
	applyDeltaLabels(rec.lab, req.AddNodes, rep)
	if len(req.AddNodes) > 0 || rep.NodeRemap != nil {
		rec.labBytes = 0
	}
	rec.deltas++
	// Durability: the delta must be on the log (fsynced under -wal-sync)
	// before the client sees the ack. An append failure means the delta is
	// live in memory but will not survive a restart — the session degrades
	// to memory-only, loudly, and the client gets a 500 so it knows the
	// commit was not made durable.
	if rec.durable != nil {
		if err := rec.durable.AppendDelta(d, req.AddNodes); err != nil {
			s.degrade(rec, "log append", err)
			return replyError(http.StatusInternalServerError, "delta applied but not durably logged: "+err.Error())
		}
		// Compaction failure is not this delta's error: its frame is
		// already logged. The log may now end in a torn snapshot frame, so
		// the session degrades and its next delta or spill rewrites it.
		// The delta is committed, so a client that leaves now must not
		// cancel the snapshot and degrade the session for nothing.
		if rec.durable.ShouldCompact() {
			if err := s.snapshotSession(context.WithoutCancel(ctx), rec); err != nil {
				s.degrade(rec, "log compaction", err)
			}
		}
	}
	s.metrics.deltasApplied.Inc()
	s.metrics.nodesAdded.Add(int64(rep.NodesAdded))
	s.metrics.nodesRemoved.Add(int64(rep.NodesRemoved))
	s.metrics.targetsAdded.Add(int64(rep.TargetsAdded))
	s.metrics.targetsDropped.Add(int64(rep.TargetsDropped))
	s.metrics.deltaLatency.Observe(int64(rep.Elapsed))
	// The delta changed the session's size: refresh its budget entry (and
	// spill colder sessions if the budget ran over) while the slot is
	// still held.
	s.noteFootprint(rec)
	resp := deltaResponse{
		Inserted:         rep.Inserted,
		Removed:          rep.Removed,
		NodesAdded:       rep.NodesAdded,
		NodesRemoved:     rep.NodesRemoved,
		TargetsAdded:     rep.TargetsAdded,
		TargetsDropped:   rep.TargetsDropped,
		Nodes:            rep.Nodes,
		Edges:            rep.Edges,
		Targets:          rep.Targets,
		Incremental:      rep.Incremental,
		TouchedTargets:   rep.IndexStats.TouchedTargets,
		KilledInstances:  rep.IndexStats.KilledInstances,
		DroppedInstances: rep.IndexStats.DroppedInstances,
		Instances:        rep.IndexStats.Instances,
		ElapsedMS:        float64(rep.Elapsed.Microseconds()) / 1000,
	}
	return reply{status: http.StatusOK, body: newJSONBuf().deltaReply(&resp)}
}

// resolveDelta maps the request's labelled mutation batch into a Delta.
// add_nodes labels must be fresh and distinct; they resolve to the next
// dense IDs and the rest of the request may reference them. Unknown labels
// are the client's mistake; structural problems (self loops, conflicts,
// absent/present edges, target links, non-isolated node removals) are
// caught by the session's own validation and surface as dynamic.ErrInvalid.
func resolveDelta(req *deltaRequest, lab *graph.Labeling) (dynamic.Delta, error) {
	pending := make(map[string]graph.NodeID, len(req.AddNodes))
	for i, name := range req.AddNodes {
		if name == "" {
			return dynamic.Delta{}, fmt.Errorf("empty node label in add_nodes")
		}
		if _, ok := lab.ToID[name]; ok {
			return dynamic.Delta{}, fmt.Errorf("add_nodes label %q already names a node", name)
		}
		if _, ok := pending[name]; ok {
			return dynamic.Delta{}, fmt.Errorf("add_nodes label %q repeated", name)
		}
		pending[name] = graph.NodeID(len(lab.ToName) + i)
	}
	lookup := func(s, kind string) (graph.NodeID, error) {
		if id, ok := lab.ToID[s]; ok {
			return id, nil
		}
		if id, ok := pending[s]; ok {
			return id, nil
		}
		return 0, fmt.Errorf("%s node %q not in session graph", kind, s)
	}
	resolve := func(pairs [][2]string, kind string) ([]graph.Edge, error) {
		out := make([]graph.Edge, 0, len(pairs))
		for _, p := range pairs {
			u, err := lookup(p[0], kind)
			if err != nil {
				return nil, err
			}
			v, err := lookup(p[1], kind)
			if err != nil {
				return nil, err
			}
			out = append(out, graph.Edge{U: u, V: v})
		}
		return out, nil
	}
	var d dynamic.Delta
	var err error
	if d.Insert, err = resolve(req.Insert, "insert"); err != nil {
		return dynamic.Delta{}, err
	}
	if d.Remove, err = resolve(req.Remove, "remove"); err != nil {
		return dynamic.Delta{}, err
	}
	if d.AddTargets, err = resolve(req.AddTargets, "add_targets"); err != nil {
		return dynamic.Delta{}, err
	}
	if d.DropTargets, err = resolve(req.DropTargets, "drop_targets"); err != nil {
		return dynamic.Delta{}, err
	}
	d.AddNodes = len(req.AddNodes)
	for _, name := range req.RemoveNodes {
		if _, ok := pending[name]; ok {
			return dynamic.Delta{}, fmt.Errorf("remove_nodes node %q is added by this same delta", name)
		}
		id, err := lookup(name, "remove_nodes")
		if err != nil {
			return dynamic.Delta{}, err
		}
		d.RemoveNodes = append(d.RemoveNodes, id)
	}
	return d, nil
}

// applyDeltaLabels folds a committed delta into the session's label table:
// the add_nodes labels join in ID order (matching the dense IDs
// resolveDelta assigned), then the report's node remap renames survivors
// and retires the removed labels.
func applyDeltaLabels(lab *graph.Labeling, added []string, rep *tpp.DeltaReport) {
	for _, name := range added {
		lab.ToID[name] = graph.NodeID(len(lab.ToName))
		lab.ToName = append(lab.ToName, name)
	}
	if rep.NodeRemap == nil {
		return
	}
	old := lab.ToName
	lab.ToName = make([]string, rep.Nodes)
	for i, name := range old {
		if nw := rep.NodeRemap[i]; nw == graph.NoNode {
			delete(lab.ToID, name)
		} else {
			lab.ToName[nw] = name
			lab.ToID[name] = nw
		}
	}
}

// handleSessionProtect runs one protection request on the session's current
// graph, reusing (and, after deltas, incrementally-updated) cached state.
// Every override is checked before the request takes a slot, so a 400
// leaves no trace on the session or the counters.
func (s *Server) handleSessionProtect(w http.ResponseWriter, r *http.Request) {
	var req sessionProtectRequest
	// An empty body is legal: it means "run with the session's defaults".
	if !s.decode(w, r, &req, true) {
		return
	}
	opts, err := runOptions{
		method: req.Method, division: req.Division, engine: req.Engine,
		budget: req.Budget, workers: req.Workers, seed: req.Seed,
	}.parse(r.Context(), false)
	if err != nil {
		writeRunError(w, badRequest{err})
		return
	}
	s.work(w, r, req.TimeoutMS, func(ctx context.Context) reply {
		return s.withSession(ctx, r, func(rec *sessionRecord) reply {
			res, err := s.protect(ctx, rec, opts)
			// The first run built the motif index — easily the biggest jump
			// a session's footprint ever takes — so re-account before
			// handing back.
			s.noteFootprint(rec)
			if err != nil {
				return failed(err)
			}
			return rec.protectReply(res, req.Budget, false, req.OmitReleased)
		})
	})
}
