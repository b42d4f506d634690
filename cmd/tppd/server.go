package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/telemetry"
	"repro/internal/tpp"
)

// Server is the TPP protection service: a JSON front end over the
// tpp.Protector session API. The one-shot path (POST /v1/protect) carries
// its own graph per request; the session path (POST /v1/sessions and the
// /v1/sessions/{id}/... family) keeps a long-lived evolving Protector on
// the server, mutated by deltas and protected repeatedly, with idle-TTL
// eviction. Requests are served concurrently, bounded by a semaphore so a
// burst of heavy selections degrades into queueing instead of thrashing.
//
// Every request runs inside the instrument middleware (observe.go): it
// keeps the per-route metrics, threads a per-request stage recorder
// through context into the tpp pipeline, and emits the structured request
// log. The same registry backs GET /metrics and GET /v1/stats.
type Server struct {
	maxBody       int64
	maxTimeout    time.Duration // server-side cap on per-request selection time
	maxScale      int           // cap on dataset graph size a client may request
	maxConcurrent int           // total selection slots, divided across shards
	sessionTTL    time.Duration // idle eviction horizon for named sessions
	queueWait     time.Duration // 429 once no slot frees within this (0 = queue to deadline)
	sessions      *sessionStore // long-lived named sessions, sharded (TTL-evicted)
	shardSeries   bool          // per-shard metric series registered (ConfigureSharding ran)

	store  *durable.Store // session persistence; nil = in-memory only
	loadMu sync.Mutex     // serialises lazy on-miss rehydration from disk

	mux      *http.ServeMux
	registry *telemetry.Registry
	metrics  *serverMetrics
	stats    serverStats // façade deriving /v1/stats from metrics

	logger   *slog.Logger  // request logger; nil means slog.Default()
	slowReq  time.Duration // log requests slower than this at Warn (0 disables)
	draining atomic.Bool   // readiness: /v1/healthz answers 503 once set
	idPrefix string        // startup entropy for request ids
	reqSeq   atomic.Int64
}

// defaultMaxScale admits the paper's full-size DBLP stand-in (317080
// nodes) with headroom while keeping a single cheap request from
// allocating an arbitrarily large graph.
const defaultMaxScale = 1 << 20

// NewServer configures a service instance. maxConcurrent bounds how many
// selections run at once (<=0 means 1); maxBody bounds the request body in
// bytes; maxTimeout caps the per-request deadline a client may ask for;
// maxScale caps the node count of server-side dataset graphs (<=0 selects
// defaultMaxScale); sessionTTL evicts named sessions idle for longer
// (<=0 disables eviction). Call Close when done to stop the TTL janitor
// and release the sessions.
func NewServer(maxConcurrent int, maxBody int64, maxTimeout time.Duration, maxScale int, sessionTTL time.Duration) *Server {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if maxScale <= 0 {
		maxScale = defaultMaxScale
	}
	s := &Server{
		maxBody:       maxBody,
		maxTimeout:    maxTimeout,
		maxScale:      maxScale,
		maxConcurrent: maxConcurrent,
		sessionTTL:    sessionTTL,
		registry:      telemetry.NewRegistry(),
		idPrefix:      newIDPrefix(),
	}
	s.metrics = newServerMetrics(s.registry,
		func() float64 { return float64(s.sessions.open()) },
		func() float64 { return float64(s.sessions.slotsInUse()) },
		func() float64 { return float64(s.sessions.slotsLimit()) },
	)
	s.stats = serverStats{m: s.metrics}
	s.sessions = newSessionStore(sessionTTL, func(n int) { s.metrics.sessionsEvicted.Add(int64(n)) }, 1, maxConcurrent, 0)
	return s
}

// ConfigureSharding partitions the session tier into shards independent
// maps/locks/work-queues with memBudget resident bytes (0 = unlimited)
// divided across them, and registers the per-shard metric series. NewServer
// starts at one shard with no budget — the single-lock baseline — so only
// deployments that want scale-out call this. Call at most once, before
// ConfigureDurability and before any session exists.
func (s *Server) ConfigureSharding(shards int, memBudget int64) error {
	if shards <= 0 {
		shards = 1
	}
	if memBudget < 0 {
		memBudget = 0
	}
	if s.shardSeries {
		return fmt.Errorf("tppd: ConfigureSharding called twice")
	}
	if s.store != nil {
		return fmt.Errorf("tppd: ConfigureSharding must run before ConfigureDurability")
	}
	if n := s.sessions.open(); n > 0 {
		return fmt.Errorf("tppd: ConfigureSharding with %d sessions live", n)
	}
	s.shardSeries = true
	old := s.sessions
	s.sessions = newSessionStore(s.sessionTTL,
		func(n int) { s.metrics.sessionsEvicted.Add(int64(n)) },
		shards, s.maxConcurrent, memBudget)
	old.close()
	for _, sh := range s.sessions.shards {
		sh := sh
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(sh.idx)}
		s.registry.GaugeFunc("tpp_shard_sessions", "Resident sessions per shard.",
			func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(len(sh.m))
			}, lbl)
		s.registry.GaugeFunc("tpp_shard_bytes", "Tracked resident session bytes per shard.",
			func() float64 { return float64(sh.budget.Used()) }, lbl)
		s.registry.GaugeFunc("tpp_shard_queue_depth", "Requests queued for a selection slot per shard.",
			func() float64 { return float64(sh.waiters.Load()) }, lbl)
		sh.spills = s.registry.Counter("tpp_shard_spills_total",
			"Cold sessions spilled by the per-shard memory budget.", lbl)
	}
	return nil
}

// ConfigureLogging installs the structured request logger and the
// slow-request threshold (requests slower than slow log at Warn with their
// full stage breakdown; 0 disables the outlier log). Nil keeps
// slog.Default(). Call before the first request.
func (s *Server) ConfigureLogging(logger *slog.Logger, slow time.Duration) {
	if logger != nil {
		s.logger = logger
	}
	s.slowReq = slow
}

// ConfigureBackpressure bounds how long a request may wait for a selection
// slot: once every slot has stayed occupied for wait, the server answers
// 429 with a Retry-After header instead of holding the request queued
// until its deadline, so clients learn to back off while their deadline
// budget is still intact. 0 keeps the queue-until-deadline behaviour.
// Call before the first request.
func (s *Server) ConfigureBackpressure(wait time.Duration) {
	s.queueWait = wait
}

// errServerBusy reports that every selection slot on the shard stayed
// occupied for the whole queue-wait budget (or its queue is full).
var errServerBusy = errors.New("all selection slots busy; retry later")

// queueBound is the waiter cap per slot: a shard with c slots admits at
// most queueBound*c queued requests before fast-failing with 429, so the
// queue stays bounded even under a flood of distinct clients.
const queueBound = 8

// acquireSlot takes a selection slot on sh: immediately if one is free,
// otherwise queueing up to the queue-wait budget (or the request deadline,
// whichever ends first) behind at most queueBound waiters per slot. On nil
// error the returned release hands the slot back and folds the hold time
// into the shard's service-time EWMA; it is idempotent, so handlers can
// both call it early (before streaming the response) and defer it.
func (s *Server) acquireSlot(ctx context.Context, sh *sessionShard) (func(), error) {
	select {
	case sh.sem <- struct{}{}:
		return sh.releaseFunc(), nil
	default:
	}
	if s.queueWait <= 0 {
		// Queue-until-deadline mode keeps the unbounded queue: the caller
		// opted out of fast-fail backpressure entirely.
		sh.waiters.Add(1)
		defer sh.waiters.Add(-1)
		select {
		case sh.sem <- struct{}{}:
			return sh.releaseFunc(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if sh.waiters.Load() >= int64(queueBound*cap(sh.sem)) {
		s.metrics.busyRejections.Inc()
		return nil, errServerBusy
	}
	sh.waiters.Add(1)
	defer sh.waiters.Add(-1)
	t := time.NewTimer(s.queueWait)
	defer t.Stop()
	select {
	case sh.sem <- struct{}{}:
		return sh.releaseFunc(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
		s.metrics.busyRejections.Inc()
		return nil, errServerBusy
	}
}

// releaseFunc builds the idempotent release closure for one held slot.
func (sh *sessionShard) releaseFunc() func() {
	start := time.Now()
	released := false
	return func() {
		if released {
			return
		}
		released = true
		sh.observeService(time.Since(start))
		<-sh.sem
	}
}

// busyResponse is the 429 body: the error, the shard's queue depth at
// rejection time, and the same back-off estimate the Retry-After header
// carries.
type busyResponse struct {
	Error             string `json:"error"`
	QueueDepth        int64  `json:"queue_depth"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// writeAcquireError maps a failed slot acquisition to the wire: busy
// becomes 429 with the shard's queue depth and an EWMA-derived Retry-After,
// a dead context follows the usual run-error mapping (504/499).
func (s *Server) writeAcquireError(w http.ResponseWriter, err error, sh *sessionShard) {
	if errors.Is(err, errServerBusy) {
		secs := sh.retryAfterSeconds(s.queueWait)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, busyResponse{
			Error:             err.Error(),
			QueueDepth:        sh.waiters.Load(),
			RetryAfterSeconds: secs,
		})
		return
	}
	writeRunError(w, err)
}

// BeginDrain flips readiness: GET /v1/healthz answers 503 from here on, so
// load balancers stop routing new work while in-flight requests finish.
// Call before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Close stops the session janitor and releases every named session. Call it
// after the HTTP server has drained (http.Server.Shutdown), so no handler
// is still using a session. Close implies BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	s.sessions.close()
}

// MetricsHandler serves the registry in Prometheus text exposition format —
// the same instruments Handler mounts at GET /metrics, for mounting on a
// separate debug listener.
func (s *Server) MetricsHandler() http.Handler {
	return s.registry.Handler()
}

// Handler returns the service's route table wrapped in the instrument
// middleware. Adding a route here usually means adding its pattern to
// routePatterns (observe.go) so it gets its own metric series instead of
// the catch-all.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/protect", s.handleProtect)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("POST /v1/sessions/{id}/protect", s.handleSessionProtect)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.registry.Handler())
	// Legacy liveness probe: always 200 while the process serves, readiness
	// notwithstanding. /v1/healthz is the readiness-aware replacement.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux = mux
	return s.instrument(mux)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once a graceful drain begins (BeginDrain/Close), so orchestrators pull
// the instance out of rotation before the listener stops.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// protectRequest is the wire form of one protection request. Exactly one
// graph source must be set: Edges (inline edge list over arbitrary string
// node labels) or Dataset (a server-side synthetic dataset). Targets name
// existing edges of that graph; alternatively SampleTargets asks the server
// to draw that many random target links (seeded, for benchmarking).
type protectRequest struct {
	Edges   [][2]string  `json:"edges,omitempty"`
	Dataset *datasetSpec `json:"dataset,omitempty"`

	Targets       [][2]string `json:"targets,omitempty"`
	SampleTargets int         `json:"sample_targets,omitempty"`

	Pattern  string `json:"pattern,omitempty"`  // Triangle (default), Rectangle, RecTri, Pentagon
	Method   string `json:"method,omitempty"`   // sgb (default), ct, wt, rd, rdt
	Division string `json:"division,omitempty"` // tbd (default), dbd
	Engine   string `json:"engine,omitempty"`   // indexed (default; "lazy" is an alias), recount
	Budget   int    `json:"budget,omitempty"`   // 0 = critical budget k*
	Seed     int64  `json:"seed,omitempty"`     // rd/rdt randomness and target sampling
	// Workers sets the number of index enumeration workers; selection
	// itself runs on one goroutine. 0 = auto; values above the server's
	// CPU count are clamped.
	Workers int `json:"workers,omitempty"`

	// TimeoutMS bounds this request's selection time; 0 uses the server
	// cap. Values above the cap are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// OmitReleased skips echoing the released edge list (it is as large as
	// the input graph) when the caller only wants the selection report.
	OmitReleased bool `json:"omit_released,omitempty"`
}

type datasetSpec struct {
	Name  string `json:"name"`
	Scale int    `json:"scale,omitempty"` // dblp-sim only; default 2000
	Seed  int64  `json:"seed,omitempty"`  // generator seed; default 1
}

// protectResponse is the selection report plus the released edge list.
// Targets is echoed only by the one-shot POST /v1/protect, where with
// sample_targets it is the only way a client learns which targets were
// drawn. A session protect leaves it out: the session's targets are already
// the client's, and GET /v1/sessions/{id} returns them, so echoing them
// would make every protect cost the whole target set on the wire.
type protectResponse struct {
	Method            string      `json:"method"`
	Nodes             int         `json:"nodes"`
	Edges             int         `json:"edges"`
	Targets           [][2]string `json:"targets,omitempty"`
	Budget            int         `json:"budget"` // as requested; 0 meant critical
	Protectors        [][2]string `json:"protectors"`
	InitialSimilarity int         `json:"initial_similarity"`
	FinalSimilarity   int         `json:"final_similarity"`
	FullProtection    bool        `json:"full_protection"`
	// WarmStart reports whether the selection was served by warm-start
	// replay from the session's previous run (identical result, less work).
	// Always false on the one-shot path — there is no previous run.
	WarmStart       bool        `json:"warm_start"`
	SimilarityTrace []int       `json:"similarity_trace"`
	ElapsedMS       float64     `json:"elapsed_ms"`
	ReleasedEdges   [][2]string `json:"released_edges,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleProtect(w http.ResponseWriter, r *http.Request) {
	var req protectRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return
	}

	// Cheap validation first, so malformed options fail fast with 400
	// before the request costs the server anything.
	opts, err := s.validateProtectRequest(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	annotateScope(r.Context(), opts)

	// The deadline covers the whole request — materialising a large dataset
	// graph can dominate the selection itself.
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()

	// Bound the heavy work — graph materialisation, selection and released-
	// graph assembly — by a shard work slot; one-shot requests touch no
	// session, so they round-robin across shards to use every queue. Waiting
	// respects the deadline and the queue-wait budget (429 once it runs
	// out). The slot is handed back before the response streams to the
	// client, so a slow reader cannot pin a worker the CPU is done with.
	sh := s.sessions.nextShard()
	releaseSem, err := s.acquireSlot(ctx, sh)
	if err != nil {
		s.writeAcquireError(w, err, sh)
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
	g, targets := session.Problem().G, session.Problem().Targets

	s.metrics.protectRequests.Inc()
	s.metrics.inflightRuns.Add(1)
	res, err := session.Run(ctx)
	s.metrics.inflightRuns.Add(-1)
	s.stats.record(session)
	if err != nil {
		writeRunError(w, err)
		return
	}

	resp := protectResponse{
		Method:            res.Method,
		Nodes:             g.NumNodes(),
		Edges:             g.NumEdges(),
		Targets:           edgePairs(targets, lab),
		Budget:            req.Budget,
		Protectors:        edgePairs(res.Protectors, lab),
		InitialSimilarity: res.SimilarityTrace[0],
		FinalSimilarity:   res.FinalSimilarity(),
		FullProtection:    res.FullProtection(),
		WarmStart:         res.WarmStart,
		SimilarityTrace:   res.SimilarityTrace,
		ElapsedMS:         float64(res.Elapsed.Microseconds()) / 1000,
	}
	if !req.OmitReleased {
		resp.ReleasedEdges = edgePairs(session.Release(res).Edges(), lab)
	}
	releaseSem() // all CPU-bound work done; don't hold the slot for the network write
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"datasets": []map[string]string{
			{"name": "arenas-email", "description": "Arenas-email stand-in: 1133 nodes, ~5451 edges"},
			{"name": "dblp", "description": "DBLP co-authorship stand-in; set scale for node count (default 2000)"},
		},
	})
}

// statsResponse is the wire form of GET /v1/stats: aggregate service
// observability — how many protection requests ran, how many sessions are
// live right now, how many motif-index enumerations were performed and how
// long they took (enumeration dominates request cost, so these timings are
// the service's main capacity signal). Every field derives from the same
// registry instruments GET /metrics exports (see serverStats); the
// *_last_ms fields carry the histograms' running mean rather than the old
// race-prone last-write value — same JSON shape, race-free source.
type statsResponse struct {
	TotalRequests      int64   `json:"total_requests"`
	LiveSessions       int64   `json:"live_sessions"`
	IndexBuilds        int64   `json:"index_builds"`
	EnumerationTotalMS float64 `json:"enumeration_total_ms"`
	EnumerationLastMS  float64 `json:"enumeration_last_ms"`

	// Long-lived session lifecycle and incremental-maintenance counters.
	// Comparing delta_apply_* against enumeration_* is the service-level
	// incremental-vs-rebuild signal: every delta whose apply time is far
	// below the enumeration time is a full re-index avoided.
	SessionsOpen      int     `json:"sessions_open"`
	SessionsCreated   int64   `json:"sessions_created"`
	SessionsClosed    int64   `json:"sessions_closed"`
	SessionsEvicted   int64   `json:"sessions_evicted"`
	DeltasApplied     int64   `json:"deltas_applied"`
	DeltaApplyTotalMS float64 `json:"delta_apply_total_ms"`
	DeltaApplyLastMS  float64 `json:"delta_apply_last_ms"`

	// Delta schema v2 mutation mix: how much node and target churn the
	// sessions have absorbed (edge churn is the deltas_applied line itself).
	NodesAdded     int64 `json:"nodes_added"`
	NodesRemoved   int64 `json:"nodes_removed"`
	TargetsAdded   int64 `json:"targets_added"`
	TargetsDropped int64 `json:"targets_dropped"`

	// Warm-start selection counters across all sessions. warm_runs over
	// warm_runs+cold_runs is the steady-state hit rate; warm_fallbacks counts
	// warm attempts abandoned (perturbation past threshold or replay
	// divergence) that re-ran cold and are already included in cold_runs.
	WarmRuns      int64 `json:"warm_runs"`
	ColdRuns      int64 `json:"cold_runs"`
	WarmFallbacks int64 `json:"warm_fallbacks"`

	// Durability counters (all zero when -data-dir is off): WAL appends and
	// their cumulative fsync cost, snapshots written and their cumulative
	// size, and the boot/lazy rehydration outcome split.
	WALAppends          int64   `json:"wal_appends"`
	WALFsyncTotalMS     float64 `json:"wal_fsync_total_ms"`
	SnapshotsWritten    int64   `json:"snapshots_written"`
	SnapshotBytesTotal  int64   `json:"snapshot_bytes_total"`
	SessionsRehydrated  int64   `json:"sessions_rehydrated"`
	SessionsQuarantined int64   `json:"sessions_quarantined"`

	// Requests rejected with 429 because no selection slot freed within the
	// queue-wait budget.
	BusyRejections int64 `json:"busy_rejections"`

	// Sharded session tier: shard count, resident bytes tracked against the
	// memory budget (0 budget = unlimited), LRU spills and create requests
	// rejected by admission control, and the live queue depth across shards.
	Shards          int   `json:"shards"`
	ResidentBytes   int64 `json:"resident_bytes"`
	MemBudgetBytes  int64 `json:"mem_budget_bytes"`
	SessionsSpilled int64 `json:"sessions_spilled"`
	MemRejections   int64 `json:"mem_rejections"`
	QueueDepth      int64 `json:"queue_depth"`

	MaxWorkers          int `json:"max_workers"`
	MaxConcurrentInUse  int `json:"max_concurrent_in_use"`
	MaxConcurrentConfig int `json:"max_concurrent_config"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := s.stats.snapshot()
	resp.SessionsOpen = s.sessions.open()
	resp.MaxWorkers = runtime.GOMAXPROCS(0)
	resp.MaxConcurrentInUse = s.sessions.slotsInUse()
	resp.MaxConcurrentConfig = s.sessions.slotsLimit()
	resp.Shards = len(s.sessions.shards)
	resp.ResidentBytes = s.sessions.residentBytes()
	resp.MemBudgetBytes = s.sessions.budgetCap()
	resp.QueueDepth = s.sessions.queueDepth()
	writeJSON(w, http.StatusOK, resp)
}

// annotateScope records the request's resolved options on its log scope.
func annotateScope(ctx context.Context, opts runOptions) {
	sc := scopeFrom(ctx)
	if sc == nil {
		return
	}
	sc.method = string(opts.method)
	sc.pattern = opts.pattern.String()
	sc.engine = opts.engine.String()
}

// requestContext derives the per-request deadline: the client's timeout_ms
// clamped to the server cap, or the cap itself when the client set none.
// A positive client timeout always bounds the run, even when the server
// cap is disabled; no deadline applies only when both are unset.
func (s *Server) requestContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.maxTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; timeout <= 0 || d < timeout {
			timeout = d
		}
	}
	if timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, timeout)
}

// statusClientClosedRequest is nginx's convention for a request aborted by
// the client; no stdlib constant exists.
const statusClientClosedRequest = 499

// runErrorStatus maps a selection or delta error to an HTTP status: caller
// mistakes (typed option errors, invalid deltas) to 400, deadline to 504,
// client cancellation to 499, anything else to 500.
func runErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, tpp.ErrUnknownMethod),
		errors.Is(err, tpp.ErrUnknownDivision),
		errors.Is(err, tpp.ErrNegativeBudget),
		errors.Is(err, tpp.ErrPatternFixed),
		errors.Is(err, dynamic.ErrInvalid):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeRunError(w http.ResponseWriter, err error) {
	writeJSON(w, runErrorStatus(err), errorResponse{Error: err.Error()})
}

// runOptions is the parsed option set shared by the one-shot protect and
// session-create paths.
type runOptions struct {
	pattern  motif.Pattern
	method   tpp.Method
	division tpp.Division
	engine   tpp.Engine
}

// validateProtectRequest performs the cheap validations — option spellings
// and server limits — that must fail fast with 400 before the request
// queues for a work slot. Empty option strings select the documented
// defaults.
func (s *Server) validateProtectRequest(r *protectRequest) (runOptions, error) {
	var opts runOptions
	opts.pattern = motif.Triangle
	var err error
	if r.Pattern != "" {
		if opts.pattern, err = motif.ParsePattern(r.Pattern); err != nil {
			return runOptions{}, err
		}
	}
	if opts.method, err = tpp.ParseMethod(r.Method); err != nil {
		return runOptions{}, err
	}
	if opts.division, err = tpp.ParseDivision(r.Division); err != nil {
		return runOptions{}, err
	}
	if opts.engine, err = tpp.ParseEngine(r.Engine); err != nil {
		return runOptions{}, err
	}
	if r.Workers < 0 {
		return runOptions{}, fmt.Errorf("negative workers %d", r.Workers)
	}
	if r.Dataset != nil && r.Dataset.Scale > s.maxScale {
		return runOptions{}, fmt.Errorf("dataset scale %d exceeds server limit %d", r.Dataset.Scale, s.maxScale)
	}
	return opts, nil
}

// newSession materialises the request's graph and constructs the Protector
// with the request's options as defaults. The caller holds a semaphore
// slot (graph materialisation can dominate a request); every error is the
// client's data unless ctx died first.
func (r *protectRequest) newSession(ctx context.Context, opts runOptions) (*tpp.Protector, *graph.Labeling, error) {
	g, lab, err := r.buildGraph()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	targets, err := r.resolveTargets(g, lab)
	if err != nil {
		return nil, nil, err
	}
	// tpp.New validates the remaining options and the target set.
	session, err := tpp.New(g, targets,
		tpp.WithPattern(opts.pattern),
		tpp.WithMethod(opts.method),
		tpp.WithDivision(opts.division),
		tpp.WithEngine(opts.engine),
		tpp.WithBudget(r.Budget),
		tpp.WithSeed(r.Seed),
		tpp.WithWorkers(r.Workers),
	)
	if err != nil {
		return nil, nil, err
	}
	return session, lab, nil
}

// buildGraph materialises the request's graph and its label mapping.
func (r *protectRequest) buildGraph() (*graph.Graph, *graph.Labeling, error) {
	switch {
	case len(r.Edges) > 0 && r.Dataset != nil:
		return nil, nil, fmt.Errorf("request sets both edges and dataset; choose one")
	case len(r.Edges) > 0:
		return graphFromPairs(r.Edges)
	case r.Dataset != nil:
		return graphFromDataset(r.Dataset)
	default:
		return nil, nil, fmt.Errorf("request needs a graph: either edges or dataset")
	}
}

// graphFromPairs interns the string-labelled edge list into a dense graph,
// mirroring graph.ReadEdgeList's tolerance: self loops and duplicate edges
// are dropped silently.
func graphFromPairs(pairs [][2]string) (*graph.Graph, *graph.Labeling, error) {
	lab := &graph.Labeling{ToID: make(map[string]graph.NodeID)}
	intern := func(s string) (graph.NodeID, error) {
		if s == "" {
			return 0, fmt.Errorf("empty node label in edge list")
		}
		if id, ok := lab.ToID[s]; ok {
			return id, nil
		}
		id := graph.NodeID(len(lab.ToName))
		lab.ToID[s] = id
		lab.ToName = append(lab.ToName, s)
		return id, nil
	}
	edges := make([]graph.Edge, 0, len(pairs))
	for _, p := range pairs {
		u, err := intern(p[0])
		if err != nil {
			return nil, nil, err
		}
		v, err := intern(p[1])
		if err != nil {
			return nil, nil, err
		}
		if u == v {
			continue
		}
		edges = append(edges, graph.NewEdge(u, v))
	}
	g := graph.New(len(lab.ToName))
	for _, e := range edges {
		g.AddEdgeE(e)
	}
	return g, lab, nil
}

func graphFromDataset(spec *datasetSpec) (*graph.Graph, *graph.Labeling, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	var ds datasets.Dataset
	switch spec.Name {
	case "arenas-email", "arenas-email-sim":
		ds = datasets.ArenasEmailSim(seed)
	case "dblp", "dblp-sim":
		scale := spec.Scale
		if scale == 0 {
			scale = 2000
		}
		ds = datasets.DBLPSim(scale, seed)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want arenas-email or dblp)", spec.Name)
	}
	g := ds.Graph
	lab := &graph.Labeling{ToID: make(map[string]graph.NodeID, g.NumNodes())}
	lab.ToName = make([]string, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		name := strconv.Itoa(i)
		lab.ToName[i] = name
		lab.ToID[name] = graph.NodeID(i)
	}
	return g, lab, nil
}

// resolveTargets maps the request's target pairs to graph edges, or samples
// them server-side when sample_targets is set.
func (r *protectRequest) resolveTargets(g *graph.Graph, lab *graph.Labeling) ([]graph.Edge, error) {
	if r.SampleTargets > 0 {
		if len(r.Targets) > 0 {
			return nil, fmt.Errorf("request sets both targets and sample_targets; choose one")
		}
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		return datasets.SampleTargets(g, r.SampleTargets, rand.New(rand.NewSource(seed))), nil
	}
	if len(r.Targets) == 0 {
		return nil, fmt.Errorf("request needs targets (or sample_targets)")
	}
	out := make([]graph.Edge, 0, len(r.Targets))
	for _, t := range r.Targets {
		u, ok := lab.ToID[t[0]]
		if !ok {
			return nil, fmt.Errorf("target node %q not in graph", t[0])
		}
		v, ok := lab.ToID[t[1]]
		if !ok {
			return nil, fmt.Errorf("target node %q not in graph", t[1])
		}
		out = append(out, graph.NewEdge(u, v))
	}
	return out, nil
}

func edgePairs(edges []graph.Edge, lab *graph.Labeling) [][2]string {
	out := make([][2]string, len(edges))
	for i, e := range edges {
		out[i] = [2]string{lab.Name(e.U), lab.Name(e.V)}
	}
	return out
}

// maxPooledJSONBuf caps the response buffers writeJSON hands back to its
// pool: a rare huge response (a large released graph) is left to the GC
// rather than pinning its capacity in the pool.
const maxPooledJSONBuf = 1 << 20

var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v as one line of compact JSON into a pooled buffer and
// writes it with an exact Content-Length in a single call, so responses are
// never chunked. Encoding completes before any header goes out: a value
// that cannot be encoded becomes a logged 500, not a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledJSONBuf {
			jsonBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		slog.Error("tppd: encoding response", "request_id", w.Header().Get(requestIDHeader), "error", err)
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: "encoding response: " + err.Error()}) // a lone string field always encodes
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client left; nothing to answer
}
