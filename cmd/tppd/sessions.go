package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/shard"
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
	// or after an append error degraded the session to memory-only).
	// Guarded by the record slot like everything else on the record.
	durable *durable.Session
	// dirty reports that a protect has run (successfully or not) since the
	// session's last durable snapshot, so snapshot + WAL no longer
	// reproduce it: the run counter and the warm-start selection live only
	// in memory. Deltas never dirty a session — each is in the WAL before
	// its ack. Zero at create and rehydrate (the record matches its files),
	// cleared by compaction. A clean session spills by closing its WAL.
	dirty bool

	// Last values folded into the aggregate selection counters, so repeated
	// protect calls on the same session add only the increment. Enumeration
	// and delta timing need no folding: the per-request stage recorder
	// observes each span exactly once, when it happens.
	statWarm      int64
	statCold      int64
	statFallbacks int64
}

// sessionStore owns the named sessions: one record map and its lock, one
// pool of selection slots with a bounded queue and the service-time EWMA
// feeding Retry-After, one memory budget in LRU order, idle-TTL eviction
// and shutdown draining.
type sessionStore struct {
	mu sync.Mutex
	m  map[string]*sessionRecord // guarded by mu

	// sem bounds the selections running at once; waiters counts the
	// requests queued for a slot right now (the 429 queue_depth field).
	sem     chan struct{}
	waiters atomic.Int64
	// ewmaNS is the smoothed per-request service time in nanoseconds,
	// updated on every slot release; Retry-After derives from it.
	ewmaNS atomic.Int64

	// budget tracks the resident session bytes in LRU order. Always
	// non-nil; a zero cap means accounting without enforcement.
	budget *shard.Budget
	ttl    time.Duration

	// spill, when set, persists whatever snapshot + WAL lack of a session
	// before eviction or shutdown removes it from memory; it is called with
	// the record's slot held. Set by ConfigureDurability.
	spill func(*sessionRecord)
	// closeTimeout bounds how long close waits for any one session's slot
	// (<=0 selects 5s); a wedged session is skipped, not waited on forever.
	closeTimeout time.Duration
	// wedged, when set, is told about sessions close gave up waiting for.
	wedged func(id string)

	stop chan struct{}
	done chan struct{}
}

// newSessionStore builds a store with slots selection slots (at least one)
// and an unlimited memory budget; ConfigureDurability sets the cap.
func newSessionStore(ttl time.Duration, evicted func(int), slots int) *sessionStore {
	if slots <= 0 {
		slots = 1
	}
	ss := &sessionStore{
		m:      make(map[string]*sessionRecord),
		sem:    make(chan struct{}, slots),
		budget: shard.NewBudget(0),
		ttl:    ttl,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if ttl > 0 {
		interval := ttl / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
		go ss.janitor(interval, evicted)
	} else {
		close(ss.done)
	}
	return ss
}

// observeService folds one completed request's slot-hold time into the
// service-time EWMA (alpha = 1/8).
func (ss *sessionStore) observeService(d time.Duration) {
	ns := int64(d)
	if ns <= 0 {
		ns = 1
	}
	for {
		old := ss.ewmaNS.Load()
		nw := ns
		if old > 0 {
			nw = old + (ns-old)/8
		}
		if ss.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the observed per-request service time times the queue ahead of it, spread
// over the selection slots. Before the first completion (no EWMA yet) it
// falls back to the configured queue-wait budget. Clamped to [1, 60].
func (ss *sessionStore) retryAfterSeconds(fallback time.Duration) int {
	ewma := ss.ewmaNS.Load()
	if ewma <= 0 {
		secs := int(fallback / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	depth := ss.waiters.Load() + 1
	wait := time.Duration(ewma) * time.Duration(depth) / time.Duration(cap(ss.sem))
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// records returns every live record, in map order.
func (ss *sessionStore) records() []*sessionRecord {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	recs := make([]*sessionRecord, 0, len(ss.m))
	//lint:maporder-ok snapshot of every record; callers are order-independent or sort
	for _, rec := range ss.m {
		recs = append(recs, rec)
	}
	return recs
}

// janitor periodically evicts sessions idle past the TTL. Busy sessions
// (slot held by a handler) are skipped and reconsidered next sweep.
func (ss *sessionStore) janitor(interval time.Duration, evicted func(int)) {
	defer close(ss.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ss.stop:
			return
		case now := <-ticker.C:
			n := 0
			for _, rec := range ss.records() {
				select {
				case rec.slot <- struct{}{}: // try-lock: busy sessions wait for the next sweep
				default:
					continue
				}
				if !rec.gone && now.Sub(rec.lastUsed) > ss.ttl {
					// With durability on, eviction spills the session to disk
					// instead of discarding it; the files stay and an
					// acquire-miss rehydrates it on demand.
					if ss.spill != nil {
						ss.spill(rec)
					}
					ss.remove(rec)
					n++
				}
				<-rec.slot
			}
			if n > 0 && evicted != nil {
				evicted(n)
			}
		}
	}
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
// (and a rehydration can replay the WAL) before the id is reachable by
// concurrent requests.
func (ss *sessionStore) publish(rec *sessionRecord) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, exists := ss.m[rec.id]; exists {
		return false
	}
	ss.m[rec.id] = rec
	return true
}

// acquire returns the session locked for exclusive use. A nil record with
// nil error means the id is unknown (never existed, deleted, or
// TTL-evicted); a non-nil error means ctx died while waiting for the slot.
// Callers must release with ss.release (or rec.slot directly after remove).
func (ss *sessionStore) acquire(ctx context.Context, id string) (*sessionRecord, error) {
	ss.mu.Lock()
	rec := ss.m[id]
	ss.mu.Unlock()
	if rec == nil {
		return nil, nil
	}
	select {
	case rec.slot <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if rec.gone {
		<-rec.slot
		return nil, nil
	}
	return rec, nil
}

// release refreshes the idle clock and the LRU position, then frees the
// slot.
func (ss *sessionStore) release(rec *sessionRecord) {
	rec.lastUsed = time.Now()
	ss.budget.Touch(rec.id)
	<-rec.slot
}

// remove unregisters rec from the map and the budget. The caller must hold
// rec's slot.
func (ss *sessionStore) remove(rec *sessionRecord) {
	rec.gone = true
	ss.mu.Lock()
	delete(ss.m, rec.id)
	ss.mu.Unlock()
	ss.budget.Remove(rec.id)
}

// open returns the number of live sessions.
func (ss *sessionStore) open() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.m)
}

// close stops the janitor and releases every session in deterministic
// (sorted-id) order, spilling each to disk when durability is on. Called
// after the HTTP server has drained, so no handler should still hold a
// record slot — but a wedged one must not hang shutdown, so each wait is
// bounded by closeTimeout and a session that never frees is skipped (its
// last durable snapshot and WAL, not its in-memory tail, survive).
func (ss *sessionStore) close() {
	select {
	case <-ss.stop:
	default:
		close(ss.stop)
	}
	<-ss.done
	recs := ss.records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	timeout := ss.closeTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for _, rec := range recs {
		t := time.NewTimer(timeout)
		select {
		case rec.slot <- struct{}{}:
			t.Stop()
		case <-t.C:
			if ss.wedged != nil {
				ss.wedged(rec.id)
			}
			continue
		}
		if !rec.gone && ss.spill != nil {
			ss.spill(rec)
		}
		ss.remove(rec)
		<-rec.slot
	}
}

// ---------------------------------------------------------------------------
// HTTP wire types

// sessionResponse describes a session to the client.
type sessionResponse struct {
	ID            string      `json:"id"`
	Nodes         int         `json:"nodes"`
	Edges         int         `json:"edges"`
	Targets       [][2]string `json:"targets"`
	Pattern       string      `json:"pattern"`
	Created       time.Time   `json:"created"`
	Runs          int64       `json:"runs"`
	DeltasApplied int64       `json:"deltas_applied"`
	IndexBuilds   int         `json:"index_builds"`
}

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
	var req protectRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return
	}
	// Cheap validation before queueing for a work slot, so malformed
	// requests fail fast — same discipline as /v1/protect.
	opts, err := s.validateProtectRequest(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	releaseSem, err := s.acquireSlot(ctx)
	if err != nil {
		s.writeAcquireError(w, err)
		return
	}
	defer releaseSem()
	session, lab, err := req.newSession(ctx, opts)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			writeRunError(w, ctxErr)
		} else {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
		return
	}
	now := time.Now()
	rec := &sessionRecord{
		id:            mintSessionID(),
		slot:          make(chan struct{}, 1),
		session:       session,
		lab:           lab,
		pattern:       opts.pattern.String(),
		defaultBudget: req.Budget,
		created:       now,
		lastUsed:      now,
	}
	// The new record's slot is held from its budget reservation until it is
	// published, so no reclaimer can pick the unpublished record as a victim.
	rec.slot <- struct{}{}
	// Admission control: the new session must fit the memory budget after
	// spilling every cold session the budget can give up. A create that
	// still does not fit is backpressure (429 + Retry-After), not an error —
	// resident sessions are busy or the budget is simply smaller than this
	// one session, and the client should retry or shrink.
	need := sessionFootprint(rec)
	if !s.admitSession(rec, need) {
		<-rec.slot
		s.metrics.memRejections.Inc()
		secs := s.sessions.retryAfterSeconds(s.queueWait)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		b := s.sessions.budget
		writeJSON(w, http.StatusTooManyRequests, busyResponse{
			Error: fmt.Sprintf("session needs ~%d bytes; memory budget %d has %d resident that cannot spill now",
				need, b.Cap(), b.Used()),
			QueueDepth:        s.sessions.waiters.Load(),
			RetryAfterSeconds: secs,
		})
		return
	}
	// With durability on, the initial snapshot must be on disk before the
	// id is handed out: a created session that vanished across a restart
	// would break the "acked means durable" contract at its first moment.
	if s.store != nil {
		h, err := s.persistNewSession(ctx, rec)
		if err != nil {
			s.sessions.budget.Remove(rec.id)
			<-rec.slot
			s.serverLogger().Error("tppd: persisting new session", "session", rec.id, "error", err)
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "persisting session: " + err.Error()})
			return
		}
		rec.durable = h
	}
	// The response is assembled before publish: once the id is out in the
	// store, concurrent requests may already be mutating the session.
	info := s.sessionInfo(rec.id, rec)
	if !s.sessions.publish(rec) {
		// Only reachable if two creates minted the same random 64-bit id.
		// The map keeps the record that won the publish, whose handle still
		// owns the files on disk — close ours, never destroy. Dropping our
		// reservation also drops the winner's entry; its next footprint
		// change re-accounts it.
		s.sessions.budget.Remove(rec.id)
		<-rec.slot
		if rec.durable != nil {
			rec.durable.Close()
		}
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("session %q already exists", rec.id)})
		return
	}
	<-rec.slot
	s.metrics.sessionsCreated.Inc()
	annotateSession(r.Context(), rec.id)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) sessionInfo(id string, rec *sessionRecord) sessionResponse {
	p := rec.session.Problem()
	return sessionResponse{
		ID:            id,
		Nodes:         p.G.NumNodes(),
		Edges:         p.G.NumEdges(),
		Targets:       edgePairs(p.Targets, rec.lab),
		Pattern:       rec.pattern,
		Created:       rec.created,
		Runs:          rec.runs,
		DeltasApplied: rec.deltas,
		IndexBuilds:   rec.session.IndexBuilds(),
	}
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.getSession(r.Context(), r.PathValue("id"))
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rec == nil {
		writeSessionNotFound(w, r.PathValue("id"))
		return
	}
	defer s.sessions.release(rec)
	annotateSession(r.Context(), rec.id)
	writeJSON(w, http.StatusOK, s.sessionInfo(rec.id, rec))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	rec, err := s.getSession(r.Context(), r.PathValue("id"))
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rec == nil {
		writeSessionNotFound(w, r.PathValue("id"))
		return
	}
	annotateSession(r.Context(), rec.id)
	// Destroy the files while still holding the slot, so a concurrent
	// request for the same id cannot rehydrate a half-deleted session: it
	// blocks on the slot until the record is gone and the files are too. A
	// session degraded to memory-only has no handle but still has files.
	var derr error
	if rec.durable != nil {
		derr = rec.durable.Destroy()
		rec.durable = nil
	} else if s.store != nil {
		derr = s.store.Remove(rec.id)
	}
	if derr != nil {
		s.serverLogger().Error("tppd: destroying session files", "session", rec.id, "error", derr)
	}
	s.sessions.remove(rec)
	<-rec.slot
	s.metrics.sessionsClosed.Inc()
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": rec.id})
}

// handleSessionDelta applies one batch of edge insertions/removals to the
// session's graph and incrementally maintains its motif index, so the next
// protect call pays for the delta, not the graph.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	var req deltaRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return
	}
	// Lock order is always work slot → record slot: a request queueing for
	// a work slot must not hold the session lock, or cheap GET/DELETE
	// calls on the same session would hang behind work that has not even
	// started.
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	releaseSem, err := s.acquireSlot(ctx)
	if err != nil {
		s.writeAcquireError(w, err)
		return
	}
	defer releaseSem()
	rec, err := s.getSession(ctx, r.PathValue("id"))
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rec == nil {
		writeSessionNotFound(w, r.PathValue("id"))
		return
	}
	recHeld := true
	releaseRec := func() {
		if recHeld {
			s.sessions.release(rec)
			recHeld = false
		}
	}
	defer releaseRec()

	annotateSession(r.Context(), rec.id)

	d, err := resolveDelta(&req, rec.lab)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	rep, err := rec.session.Apply(ctx, d)
	if err != nil {
		writeRunError(w, err)
		return
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
			s.serverLogger().Error("tppd: WAL append failed; session durability degraded",
				"session", rec.id, "error", err)
			rec.durable.Close()
			rec.durable = nil
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: "delta applied but not durably logged: " + err.Error()})
			return
		}
		if rec.durable.ShouldCompact() {
			// Compaction failure is not a client error: the log is intact,
			// just long; retried at the next threshold crossing.
			if err := s.compactSession(ctx, rec); err != nil {
				s.serverLogger().Warn("tppd: WAL compaction failed; will retry",
					"session", rec.id, "error", err)
			}
		}
	}
	s.metrics.deltasApplied.Inc()
	s.metrics.nodesAdded.Add(int64(rep.NodesAdded))
	s.metrics.nodesRemoved.Add(int64(rep.NodesRemoved))
	s.metrics.targetsAdded.Add(int64(rep.TargetsAdded))
	s.metrics.targetsDropped.Add(int64(rep.TargetsDropped))
	s.metrics.deltaLatency.Observe(int64(rep.Elapsed))
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
	// The delta changed the session's size: refresh its budget entry (and
	// spill colder sessions if the budget ran over) while the slot is still
	// held, then hand back the slot and the session before streaming the
	// response to a possibly-slow client.
	s.noteFootprint(rec)
	releaseRec()
	releaseSem()
	writeJSON(w, http.StatusOK, resp)
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
func (s *Server) handleSessionProtect(w http.ResponseWriter, r *http.Request) {
	var req sessionProtectRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	// An empty body is legal: it means "run with the session's defaults".
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return
	}
	var opts []tpp.Option
	if req.Method != "" {
		m, err := tpp.ParseMethod(req.Method)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		opts = append(opts, tpp.WithMethod(m))
	}
	if req.Division != "" {
		d, err := tpp.ParseDivision(req.Division)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		opts = append(opts, tpp.WithDivision(d))
	}
	if req.Engine != "" {
		e, err := tpp.ParseEngine(req.Engine)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		opts = append(opts, tpp.WithEngine(e))
	}
	if req.Budget != nil {
		opts = append(opts, tpp.WithBudget(*req.Budget))
	}
	if req.Seed != nil {
		opts = append(opts, tpp.WithSeed(*req.Seed))
	}
	if req.Workers != nil {
		if *req.Workers < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("negative workers %d", *req.Workers)})
			return
		}
		opts = append(opts, tpp.WithWorkers(*req.Workers))
	}

	// Same lock order as the delta handler: work slot first, session lock
	// second, both handed back before the response write.
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	releaseSem, err := s.acquireSlot(ctx)
	if err != nil {
		s.writeAcquireError(w, err)
		return
	}
	defer releaseSem()
	rec, err := s.getSession(ctx, r.PathValue("id"))
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rec == nil {
		writeSessionNotFound(w, r.PathValue("id"))
		return
	}
	recHeld := true
	releaseRec := func() {
		if recHeld {
			s.sessions.release(rec)
			recHeld = false
		}
	}
	defer releaseRec()

	annotateSession(r.Context(), rec.id)
	if sc := scopeFrom(r.Context()); sc != nil {
		sc.method = req.Method
		sc.engine = req.Engine
	}

	s.metrics.protectRequests.Inc()
	s.metrics.inflightRuns.Add(1)
	rec.dirty = true
	res, err := rec.session.Run(ctx, opts...)
	s.metrics.inflightRuns.Add(-1)
	s.recordSessionStats(rec)
	if err != nil {
		writeRunError(w, err)
		return
	}
	rec.runs++

	p := rec.session.Problem()
	budget := rec.defaultBudget
	if req.Budget != nil {
		budget = *req.Budget
	}
	resp := protectResponse{
		Method:            res.Method,
		Nodes:             p.G.NumNodes(),
		Edges:             p.G.NumEdges(),
		Budget:            budget,
		Protectors:        edgePairs(res.Protectors, rec.lab),
		InitialSimilarity: res.SimilarityTrace[0],
		FinalSimilarity:   res.FinalSimilarity(),
		FullProtection:    res.FullProtection(),
		WarmStart:         res.WarmStart,
		SimilarityTrace:   res.SimilarityTrace,
		ElapsedMS:         float64(res.Elapsed.Microseconds()) / 1000,
	}
	if !req.OmitReleased {
		resp.ReleasedEdges = edgePairs(rec.session.Release(res).Edges(), rec.lab)
	}
	// The first run built the motif index — easily the biggest jump a
	// session's footprint ever takes — so re-account before handing back.
	s.noteFootprint(rec)
	releaseRec()
	releaseSem()
	writeJSON(w, http.StatusOK, resp)
}

// recordSessionStats folds a session's selection counters into the
// aggregate warm/cold metrics, adding only what changed since the last
// fold so repeated protect calls on the same long-lived session count each
// selection once. Enumeration and delta timings flow through the stage
// recorder instead and need no folding.
func (s *Server) recordSessionStats(rec *sessionRecord) {
	warm := int64(rec.session.WarmRuns())
	cold := int64(rec.session.ColdRuns())
	falls := int64(rec.session.WarmFallbacks())
	s.metrics.warmRuns.Add(warm - rec.statWarm)
	s.metrics.coldRuns.Add(cold - rec.statCold)
	s.metrics.warmFallbacks.Add(falls - rec.statFallbacks)
	rec.statWarm, rec.statCold, rec.statFallbacks = warm, cold, falls
}

func writeSessionNotFound(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown session %q (expired, deleted, or never created)", id)})
}
