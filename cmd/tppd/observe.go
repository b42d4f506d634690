package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// Observability plumbing for the daemon: every instrument the service
// exports lives in one registry, registered once at construction under
// stable names. Naming scheme:
//
//   - tppd_*  — HTTP/service-level metrics (requests, sessions, deltas)
//   - tpp_*   — pipeline-level metrics shared with the library
//     (tpp_stage_duration_seconds, fed through telemetry.Stages)
//
// Request-scoped state (the per-request stage recorder and the annotation
// scope handlers fill in) travels via context from the instrument
// middleware down into the handlers and the tpp session code.

// routeOther labels requests that match no registered route (404s, bad
// methods). Every series is pre-registered, so the request path never
// takes the registry lock.
const routeOther = "other"

// routePatterns lists every route the per-route instruments are
// pre-registered for. Keep in sync with Server.Handler's route table.
var routePatterns = []string{
	"POST /v1/protect",
	"POST /v1/sessions",
	"GET /v1/sessions/{id}",
	"POST /v1/sessions/{id}/delta",
	"POST /v1/sessions/{id}/protect",
	"DELETE /v1/sessions/{id}",
	"GET /v1/datasets",
	"GET /v1/stats",
	"GET /v1/healthz",
	"GET /healthz",
	"GET /metrics",
	routeOther,
}

// statusClasses are the status-class label values, indexed by status/100-1.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeInstruments is the per-route instrument set.
type routeInstruments struct {
	latency *telemetry.Histogram
	size    *telemetry.Histogram
	class   [len(statusClasses)]*telemetry.Counter
}

// classCounter maps an HTTP status to its status-class counter.
func (ri *routeInstruments) classCounter(status int) *telemetry.Counter {
	i := status/100 - 1
	if i < 0 || i >= len(statusClasses) {
		i = 4 // treat garbage as 5xx: it is a server bug either way
	}
	return ri.class[i]
}

// serverMetrics owns every instrument the daemon registers. All fields are
// fixed after newServerMetrics returns; the maps are read-only afterwards,
// so concurrent request handling needs no locking to reach an instrument.
type serverMetrics struct {
	routes map[string]*routeInstruments

	// stages aggregates per-stage pipeline timing across all requests; each
	// request additionally gets its own telemetry.Stages recorder (sink =
	// this) for its log breakdown.
	stages *telemetry.StageHistograms

	protectRequests *telemetry.Counter // protection runs accepted for processing
	inflightRuns    *telemetry.Gauge   // protection runs executing right now

	sessionsCreated *telemetry.Counter
	sessionsClosed  *telemetry.Counter
	sessionsEvicted *telemetry.Counter

	deltasApplied *telemetry.Counter
	deltaLatency  *telemetry.Histogram // full Apply wall time, handler-level

	nodesAdded     *telemetry.Counter
	nodesRemoved   *telemetry.Counter
	targetsAdded   *telemetry.Counter
	targetsDropped *telemetry.Counter

	warmRuns      *telemetry.Counter
	coldRuns      *telemetry.Counter
	warmFallbacks *telemetry.Counter

	// Durability instruments. The WAL/snapshot ones are fed by
	// internal/durable (wired through durableMetrics); the rehydration
	// counter by the server's recovery path, the quarantine counter by
	// Store.Quarantine.
	walAppends          *telemetry.Counter
	walFsync            *telemetry.Histogram
	snapshotBytes       *telemetry.Histogram
	sessionsRehydrated  *telemetry.Counter
	sessionsQuarantined *telemetry.Counter

	busyRejections *telemetry.Counter // 429s from an exhausted queue-wait budget

	// Memory budget: LRU spills it drove, and creates rejected by
	// admission control.
	sessionsSpilled *telemetry.Counter
	memRejections   *telemetry.Counter
}

// newServerMetrics registers the daemon's instrument set on s.registry.
// The gauge callbacks read live session-store state (open sessions, slot
// occupancy, queue depth, resident bytes) at scrape time.
func newServerMetrics(s *Server) *serverMetrics {
	reg := s.registry
	m := &serverMetrics{routes: make(map[string]*routeInstruments, len(routePatterns))}
	for _, route := range routePatterns {
		ri := &routeInstruments{
			latency: reg.Histogram("tppd_request_duration_seconds",
				"HTTP request latency by route.",
				telemetry.DurationBounds(), 1e9, telemetry.Label{Key: "route", Value: route}),
			size: reg.Histogram("tppd_response_bytes",
				"HTTP response body size by route.",
				telemetry.SizeBounds(), 1, telemetry.Label{Key: "route", Value: route}),
		}
		for i, class := range statusClasses {
			ri.class[i] = reg.Counter("tppd_requests_total",
				"HTTP requests by route and status class.",
				telemetry.Label{Key: "route", Value: route},
				telemetry.Label{Key: "class", Value: class})
		}
		m.routes[route] = ri
	}

	m.stages = telemetry.NewStageHistograms(reg, "tpp_stage_duration_seconds",
		"Protect-pipeline stage latency: enumerate, score, warm_replay, cold_select, delta_apply.")

	m.protectRequests = reg.Counter("tppd_protect_requests_total",
		"Protection runs accepted for processing (one-shot and session).")
	m.inflightRuns = reg.Gauge("tppd_runs_inflight",
		"Protection runs executing right now.")

	m.sessionsCreated = reg.Counter("tppd_sessions_created_total", "Named sessions created.")
	m.sessionsClosed = reg.Counter("tppd_sessions_closed_total", "Named sessions deleted by clients.")
	m.sessionsEvicted = reg.Counter("tppd_sessions_evicted_total", "Named sessions evicted by the idle TTL.")
	reg.GaugeFunc("tppd_sessions_open", "Named sessions currently live.",
		func() float64 { return float64(s.open()) })

	m.deltasApplied = reg.Counter("tppd_deltas_applied_total",
		"Graph deltas committed across all sessions.")
	m.deltaLatency = reg.Histogram("tppd_delta_duration_seconds",
		"Full wall-clock latency of committed session deltas.",
		telemetry.DurationBounds(), 1e9)

	m.nodesAdded = reg.Counter("tppd_session_mutations_total",
		"Session mutation mix by kind.", telemetry.Label{Key: "kind", Value: "nodes_added"})
	m.nodesRemoved = reg.Counter("tppd_session_mutations_total",
		"Session mutation mix by kind.", telemetry.Label{Key: "kind", Value: "nodes_removed"})
	m.targetsAdded = reg.Counter("tppd_session_mutations_total",
		"Session mutation mix by kind.", telemetry.Label{Key: "kind", Value: "targets_added"})
	m.targetsDropped = reg.Counter("tppd_session_mutations_total",
		"Session mutation mix by kind.", telemetry.Label{Key: "kind", Value: "targets_dropped"})

	m.warmRuns = reg.Counter("tppd_selection_runs_total",
		"SGB selections by serving mode.", telemetry.Label{Key: "mode", Value: "warm"})
	m.coldRuns = reg.Counter("tppd_selection_runs_total",
		"SGB selections by serving mode.", telemetry.Label{Key: "mode", Value: "cold"})
	m.warmFallbacks = reg.Counter("tppd_selection_fallbacks_total",
		"Warm-start attempts abandoned for a cold re-run (already counted in mode=\"cold\").")

	m.walAppends = reg.Counter("tpp_wal_appends_total",
		"Session deltas appended to write-ahead logs.")
	m.walFsync = reg.Histogram("tpp_wal_fsync_seconds",
		"WAL fsync latency per synced append.",
		telemetry.DurationBounds(), 1e9)
	m.snapshotBytes = reg.Histogram("tpp_snapshot_bytes",
		"Encoded size of each session snapshot written.",
		telemetry.SizeBounds(), 1)
	m.sessionsRehydrated = reg.Counter("tpp_sessions_rehydrated_total",
		"Sessions restored from disk (boot rehydration and lazy on-miss loads).")
	m.sessionsQuarantined = reg.Counter("tpp_sessions_quarantined_total",
		"Sessions whose files were renamed aside after a failed recovery.")

	m.busyRejections = reg.Counter("tppd_busy_rejections_total",
		"Requests answered 429 because no selection slot freed within the queue-wait budget.")
	m.sessionsSpilled = reg.Counter("tppd_sessions_spilled_total",
		"Cold sessions spilled to their logs by the memory budget.")
	m.memRejections = reg.Counter("tppd_mem_rejections_total",
		"Session creates answered 429 because the memory budget could not admit them.")

	reg.GaugeFunc("tppd_concurrency_in_use", "Selection slots occupied.",
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("tppd_concurrency_limit", "Configured selection-slot limit.",
		func() float64 { return float64(cap(s.sem)) })
	reg.GaugeFunc("tpp_shard_queue_depth", "Requests queued for a selection slot.",
		func() float64 { return float64(s.waiters.Load()) })
	reg.GaugeFunc("tpp_shard_bytes", "Tracked resident session bytes.",
		func() float64 { return float64(s.budget.Used()) })
	return m
}

// durableMetrics exposes the persistence instruments in the form
// durable.Open wants, so /metrics and /v1/stats read the same counters the
// store feeds.
func (s *Server) durableMetrics() durable.Metrics {
	return durable.Metrics{
		WALAppends:    s.metrics.walAppends,
		WALFsync:      s.metrics.walFsync,
		SnapshotBytes: s.metrics.snapshotBytes,
		Quarantined:   s.metrics.sessionsQuarantined,
	}
}

// route returns the pre-registered instrument set for a matched mux
// pattern, or the catch-all.
func (m *serverMetrics) route(pattern string) *routeInstruments {
	if ri := m.routes[pattern]; ri != nil {
		return ri
	}
	return m.routes[routeOther]
}

// reqScope carries per-request annotations from the handlers back to the
// request logger: the handler fills in what it learns (session id, engine,
// pattern) and the middleware logs it after the response is written.
type reqScope struct {
	id      string // request id, set by the middleware
	session string
	engine  string
	pattern string
	method  string
}

type scopeKey struct{}

// scopeFrom returns the request's annotation scope, or nil outside the
// instrument middleware (direct handler tests).
func scopeFrom(ctx context.Context) *reqScope {
	sc, _ := ctx.Value(scopeKey{}).(*reqScope)
	return sc
}

// annotateSession records the session id a request operated on.
func annotateSession(ctx context.Context, id string) {
	if sc := scopeFrom(ctx); sc != nil {
		sc.session = id
	}
}

// statusWriter records the response status and body size as they stream.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// nextRequestID returns a process-unique request id: a startup entropy
// prefix plus a sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
}

// newIDPrefix draws the startup entropy for request ids.
func newIDPrefix() string {
	buf := make([]byte, 3)
	if _, err := rand.Read(buf); err != nil {
		panic(fmt.Sprintf("tppd: reading request id entropy: %v", err))
	}
	return hex.EncodeToString(buf)
}

// requestIDHeader carries the request id on every response, so a client
// can join its call to the structured request log line (request_id).
const requestIDHeader = "X-Request-Id"

// instrument wraps the route table with the observability layer: per-route
// latency/size/status metrics, the per-request stage recorder, the
// X-Request-Id response header and the structured request log. It runs
// outside the mux, so the matched pattern is resolved with mux.Handler —
// the pattern the mux stamps on the request lands on the mux's own shallow
// copy, never on this r.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		_, pattern := s.mux.Handler(r)
		sc := &reqScope{id: s.nextRequestID()}
		sp := telemetry.NewStages(s.metrics.stages)
		ctx := telemetry.NewContext(r.Context(), sp)
		ctx = context.WithValue(ctx, scopeKey{}, sc)
		w.Header().Set(requestIDHeader, sc.id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		ri := s.metrics.route(pattern)
		ri.latency.Observe(int64(elapsed))
		ri.size.Observe(sw.bytes)
		ri.classCounter(sw.status).Inc()
		s.logRequest(r, pattern, sc, sw, sp, elapsed)
	})
}

// logRequest emits the structured request log. Routine requests log at
// Debug (invisible under the default Info level), requests slower than the
// configured threshold at Warn with the full stage breakdown, and 5xx
// responses at Error.
func (s *Server) logRequest(r *http.Request, pattern string, sc *reqScope, sw *statusWriter, sp *telemetry.Stages, elapsed time.Duration) {
	level := slog.LevelDebug
	slow := s.slowReq > 0 && elapsed >= s.slowReq
	switch {
	case sw.status >= 500:
		level = slog.LevelError
	case slow:
		level = slog.LevelWarn
	}
	logger := s.logger
	if logger == nil {
		logger = slog.Default()
	}
	if !logger.Enabled(r.Context(), level) {
		return
	}
	if pattern == "" {
		pattern = routeOther
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("request_id", sc.id),
		slog.String("route", pattern),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
		slog.Int64("bytes", sw.bytes),
	)
	if sc.session != "" {
		attrs = append(attrs, slog.String("session", sc.session))
	}
	if sc.method != "" {
		attrs = append(attrs, slog.String("tpp_method", sc.method))
	}
	if sc.engine != "" {
		attrs = append(attrs, slog.String("engine", sc.engine))
	}
	if sc.pattern != "" {
		attrs = append(attrs, slog.String("pattern", sc.pattern))
	}
	if stageAttrs := stageBreakdown(sp); len(stageAttrs) > 0 {
		attrs = append(attrs, slog.Attr{Key: "stages", Value: slog.GroupValue(stageAttrs...)})
	}
	msg := "request"
	if slow {
		msg = "slow request"
	}
	logger.LogAttrs(r.Context(), level, msg, attrs...)
}

// stageBreakdown renders the request's per-stage timing as log attributes,
// one per stage that actually ran.
func stageBreakdown(sp *telemetry.Stages) []slog.Attr {
	var attrs []slog.Attr
	for i := 0; i < telemetry.NumStages; i++ {
		st := telemetry.Stage(i)
		if sp.Calls(st) == 0 {
			continue
		}
		attrs = append(attrs, slog.Float64(st.String()+"_ms", float64(sp.Nanos(st))/1e6))
	}
	return attrs
}
