package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/shard"
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
	maxBody    int64
	maxTimeout time.Duration // server-side cap on per-request selection time
	maxScale   int           // cap on dataset graph size a client may request
	queueWait  time.Duration // 429 once no slot frees within this (0 = queue to deadline)

	// The session table: every named session, resident or being loaded
	// from its log (sessions.go).
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
	ttl    time.Duration // idle sessions are evicted after this (0 = never)
	stop   chan struct{} // closed by Close to stop the janitor
	done   chan struct{} // closed once the janitor has stopped

	store *durable.Store // session persistence; nil = in-memory only

	mux      *http.ServeMux
	registry *telemetry.Registry
	metrics  *serverMetrics

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
	if maxScale <= 0 {
		maxScale = defaultMaxScale
	}
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	s := &Server{
		maxBody:    maxBody,
		maxTimeout: maxTimeout,
		maxScale:   maxScale,
		m:          make(map[string]*sessionRecord),
		sem:        make(chan struct{}, maxConcurrent),
		budget:     shard.NewBudget(0),
		ttl:        sessionTTL,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		registry:   telemetry.NewRegistry(),
		idPrefix:   newIDPrefix(),
	}
	s.metrics = newServerMetrics(s)
	if sessionTTL > 0 {
		interval := sessionTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
		go s.janitor(interval)
	} else {
		close(s.done)
	}
	return s
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

// BeginDrain flips readiness: GET /v1/healthz answers 503 from here on, so
// load balancers stop routing new work while in-flight requests finish.
// Call before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// closeTimeout bounds how long Close waits for any one session's slot; a
// wedged session is skipped, not waited on forever.
var closeTimeout = 5 * time.Second

// Close stops the session janitor and evicts every named session in
// sorted-id order, spilling each to its log when durability is on. Call it
// after the HTTP server has drained (http.Server.Shutdown), so no handler
// is still using a session; a wedged one must still not hang shutdown, so
// each wait is bounded by closeTimeout and a session that never frees is
// skipped (its logged state, not its in-memory tail, survives). Close
// implies BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	recs := s.records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	for _, rec := range recs {
		t := time.NewTimer(closeTimeout)
		select {
		case rec.slot <- struct{}{}:
			t.Stop()
		case <-t.C:
			s.serverLogger().Error("tppd: session wedged at shutdown; skipped without a spill",
				"session", rec.id)
			continue
		}
		if !rec.gone {
			s.evict(rec)
		}
		<-rec.slot
	}
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
	// Edges is the edge list as encoding/json decodes it; the canonical
	// decoder and buildGraph move it into interned.
	Edges   edgeList     `json:"edges,omitempty"`
	Dataset *datasetSpec `json:"dataset,omitempty"`

	Targets       edgeList `json:"targets,omitempty"`
	SampleTargets int      `json:"sample_targets,omitempty"`

	Pattern  string `json:"pattern,omitempty"`  // Triangle (default), Rectangle, RecTri, Pentagon
	Method   string `json:"method,omitempty"`   // sgb (default), ct, wt, rd, rdt
	Division string `json:"division,omitempty"` // tbd (default), dbd
	Engine   string `json:"engine,omitempty"`   // indexed (default, the only engine)
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

	interned edgeInterner // the decoded edge list
}

type datasetSpec struct {
	Name  string `json:"name"`
	Scale int    `json:"scale,omitempty"` // dblp-sim only; default 2000
	Seed  int64  `json:"seed,omitempty"`  // generator seed; default 1
}

// handleProtect serves the one-shot POST /v1/protect: the request's graph
// becomes an unpublished session record that runs the same protect path as
// a session protect, and the response also echoes the targets, the only
// way a client learns which ones sample_targets drew.
func (s *Server) handleProtect(w http.ResponseWriter, r *http.Request) {
	s.withNewRecord(w, r, func(ctx context.Context, req *protectRequest, rec *sessionRecord) reply {
		res, err := s.protect(ctx, rec, nil)
		if err != nil {
			return failed(err)
		}
		return rec.protectReply(res, nil, true, req.OmitReleased)
	})
}

// withNewRecord is the front create and one-shot protect share: decode the
// request, check its options before it takes a slot, then, holding a
// selection slot, build its graph into an unpublished record and run fn on
// it.
func (s *Server) withNewRecord(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context, req *protectRequest, rec *sessionRecord) reply) {
	var req protectRequest
	if !s.decode(w, r, &req, false) {
		return
	}
	opts, err := req.options(r.Context(), s.maxScale)
	if err != nil {
		writeRunError(w, badRequest{err})
		return
	}
	s.work(w, r, req.TimeoutMS, func(ctx context.Context) reply {
		rec, err := req.newRecord(ctx, opts)
		if err != nil {
			return failed(err)
		}
		return fn(ctx, &req, rec)
	})
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
// observability — how many protection runs were accepted and how many are
// executing right now, how many motif-index enumerations were performed and
// how long they took (enumeration dominates request cost, so these timings
// are the service's main capacity signal). Every field derives from the
// same registry instruments GET /metrics exports; the *_mean_ms fields are
// the histograms' running means.
type statsResponse struct {
	TotalRequests      int64   `json:"total_requests"`
	RunsInflight       int64   `json:"runs_inflight"`
	IndexBuilds        int64   `json:"index_builds"`
	EnumerationTotalMS float64 `json:"enumeration_total_ms"`
	EnumerationMeanMS  float64 `json:"enumeration_mean_ms"`

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
	DeltaApplyMeanMS  float64 `json:"delta_apply_mean_ms"`

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

	// Session memory: resident bytes tracked against the memory budget
	// (0 budget = unlimited), LRU spills and create requests rejected by
	// admission control, and the live queue depth for a selection slot.
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
	m := s.metrics
	enum := m.stages.Histogram(telemetry.StageEnumerate)
	writeJSON(w, http.StatusOK, statsResponse{
		TotalRequests:      m.protectRequests.Load(),
		RunsInflight:       m.inflightRuns.Load(),
		IndexBuilds:        enum.Count(),
		EnumerationTotalMS: float64(enum.Sum()) / 1e6,
		EnumerationMeanMS:  enum.Mean() / 1e6,

		SessionsOpen:      s.open(),
		SessionsCreated:   m.sessionsCreated.Load(),
		SessionsClosed:    m.sessionsClosed.Load(),
		SessionsEvicted:   m.sessionsEvicted.Load(),
		DeltasApplied:     m.deltasApplied.Load(),
		DeltaApplyTotalMS: float64(m.deltaLatency.Sum()) / 1e6,
		DeltaApplyMeanMS:  m.deltaLatency.Mean() / 1e6,

		NodesAdded:     m.nodesAdded.Load(),
		NodesRemoved:   m.nodesRemoved.Load(),
		TargetsAdded:   m.targetsAdded.Load(),
		TargetsDropped: m.targetsDropped.Load(),

		WarmRuns:      m.warmRuns.Load(),
		ColdRuns:      m.coldRuns.Load(),
		WarmFallbacks: m.warmFallbacks.Load(),

		WALAppends:          m.walAppends.Load(),
		WALFsyncTotalMS:     float64(m.walFsync.Sum()) / 1e6,
		SnapshotsWritten:    m.snapshotBytes.Count(),
		SnapshotBytesTotal:  m.snapshotBytes.Sum(),
		SessionsRehydrated:  m.sessionsRehydrated.Load(),
		SessionsQuarantined: m.sessionsQuarantined.Load(),

		BusyRejections: m.busyRejections.Load(),

		ResidentBytes:   s.budget.Used(),
		MemBudgetBytes:  s.budget.Cap(),
		SessionsSpilled: m.sessionsSpilled.Load(),
		MemRejections:   m.memRejections.Load(),
		QueueDepth:      s.waiters.Load(),

		MaxWorkers:          runtime.GOMAXPROCS(0),
		MaxConcurrentInUse:  len(s.sem),
		MaxConcurrentConfig: cap(s.sem),
	})
}

// options validates a create or one-shot request's pattern, limits and
// option block before it takes a slot, and returns them as the new
// session's options.
func (r *protectRequest) options(ctx context.Context, maxScale int) ([]tpp.Option, error) {
	pattern := motif.Triangle
	if r.Pattern != "" {
		var err error
		if pattern, err = motif.ParsePattern(r.Pattern); err != nil {
			return nil, err
		}
	}
	if r.Dataset != nil && r.Dataset.Scale > maxScale {
		return nil, fmt.Errorf("dataset scale %d exceeds server limit %d", r.Dataset.Scale, maxScale)
	}
	opts, err := runOptions{
		method: r.Method, division: r.Division, engine: r.Engine,
		budget: &r.Budget, workers: &r.Workers, seed: &r.Seed,
	}.parse(ctx, true)
	if err != nil {
		return nil, err
	}
	if sc := scopeFrom(ctx); sc != nil {
		sc.pattern = pattern.String()
	}
	return append(opts, tpp.WithPattern(pattern)), nil
}

// newRecord materialises the request's graph and wraps a Protector built
// with opts in an unpublished record, the form create and one-shot protect
// both work on. The caller holds a selection slot: building a large graph
// can dominate the request. Every error is the client's data unless ctx
// died first.
func (r *protectRequest) newRecord(ctx context.Context, opts []tpp.Option) (*sessionRecord, error) {
	g, lab, err := r.buildGraph()
	var session *tpp.Protector
	if err == nil && ctx.Err() == nil {
		var targets []graph.Edge
		if targets, err = r.resolveTargets(g, lab); err == nil {
			session, err = tpp.New(g, targets, opts...)
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, badRequest{err}
	}
	now := time.Now()
	return &sessionRecord{
		slot:          make(chan struct{}, 1),
		session:       session,
		lab:           lab,
		pattern:       session.Problem().Pattern.String(),
		defaultBudget: r.Budget,
		created:       now,
		lastUsed:      now,
	}, nil
}

// buildGraph materialises the request's graph and its label mapping.
func (r *protectRequest) buildGraph() (*graph.Graph, *graph.Labeling, error) {
	r.internEdges()
	switch {
	case r.interned.pairs > 0 && r.Dataset != nil:
		return nil, nil, fmt.Errorf("request sets both edges and dataset; choose one")
	case r.interned.pairs > 0:
		return r.interned.graph()
	case r.Dataset != nil:
		return graphFromDataset(r.Dataset)
	default:
		return nil, nil, fmt.Errorf("request needs a graph: either edges or dataset")
	}
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
