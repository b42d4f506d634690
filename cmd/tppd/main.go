// Command tppd serves TPP protection requests over HTTP — the network
// front end of the target-privacy pipeline. Clients POST a graph (inline
// edge list or a named server-side dataset), the sensitive target links
// and the protection options; the service runs phase-1 target removal and
// phase-2 greedy protector selection under a per-request deadline and
// returns the released edge list with a full selection report.
//
// Endpoints:
//
//	POST   /v1/protect               run a one-shot protection request
//	POST   /v1/sessions              create a long-lived evolving session
//	GET    /v1/sessions/{id}         inspect a session
//	POST   /v1/sessions/{id}/delta   apply edge insertions/removals
//	POST   /v1/sessions/{id}/protect protect on the session's current graph
//	DELETE /v1/sessions/{id}         delete a session
//	GET    /v1/datasets              list the server-side datasets
//	GET    /v1/stats                 service counters and timings (JSON)
//	GET    /metrics                  Prometheus text exposition
//	GET    /v1/healthz               readiness probe (503 while draining)
//	GET    /healthz                  liveness probe (always 200)
//
// Every route runs one request pipeline (pipeline.go), one call site per
// layer: decode exactly one JSON value from the body and check its options
// (400 otherwise), take the deadline and a selection slot (429/504/499
// otherwise), lock the session the path names (404 otherwise), do the
// route's work and encode its reply, release the record slot and then the
// selection slot, and only then write the reply. The one-shot protect is
// an unpublished session running the same protect path as a session
// protect.
//
// Sessions keep their motif index warm across calls: deltas update it
// incrementally (time proportional to the delta, not the graph) and idle
// sessions are evicted after -session-ttl.
//
// With -data-dir set, sessions are durable: each one is a single
// append-only log file of snapshot and delta frames (each delta fsynced
// before the ack under -wal-sync, a fresh snapshot appended every
// -wal-compact deltas), TTL eviction spills a session to disk instead of
// discarding state (appending a final snapshot only when a protect ran
// since the last one), and a restart rehydrates every recoverable session —
// a torn final frame is truncated, unrecoverable sessions are quarantined
// aside and the server keeps serving. A data dir in the older two-file
// layout is converted on boot.
//
// All sessions live in one table owned by the Server: one map and lock,
// one pool of -max-concurrent selection slots with a bounded queue, and
// one memory budget. With -mem-budget set (needs -data-dir), the server
// spills its coldest idle sessions to -data-dir the same way when
// admitting more would exceed the budget; TTL eviction, budget reclaim
// and shutdown share that one eviction path. Spilled sessions rehydrate
// lazily on next touch, bit-identical: the lookup claims the id in the
// table and reads its log outside the lock, so concurrent requests for
// the id read it once and no other session's load waits.
//
// When every selection slot stays busy for -queue-wait, new work is
// rejected with 429 + Retry-After instead of queueing until the request
// deadline, so clients back off while their own deadline budget is still
// intact (0 restores queue-until-deadline). The 429 body reports the
// queue_depth; Retry-After derives from the service-time EWMA.
//
// Every request is logged through log/slog with a request id, the matched
// route, the session and engine in play, status, latency and a per-stage
// timing breakdown (enumerate / score / warm_replay / cold_select /
// delta_apply). Routine requests log at debug; -log-level=debug shows
// them, and requests slower than -slow-request are promoted to warnings.
//
// Example:
//
//	tppd -addr :8080 &
//	curl -s localhost:8080/v1/protect -d '{
//	  "edges": [["a","b"],["a","c"],["c","b"],["a","d"],["d","b"]],
//	  "targets": [["a","b"]],
//	  "pattern": "Triangle",
//	  "method": "sgb"
//	}'
//
// Requests are served concurrently; -max-concurrent bounds how many
// selections run at once and -request-timeout caps each request's
// selection time (clients may ask for less via "timeout_ms").
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on DefaultServeMux for -pprof
	"flag"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/durable"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxConcurrent = flag.Int("max-concurrent", runtime.GOMAXPROCS(0), "max selections running at once")
		maxBody       = flag.Int64("max-body", 32<<20, "max request body bytes")
		reqTimeout    = flag.Duration("request-timeout", time.Minute, "per-request selection time cap")
		maxScale      = flag.Int("max-dataset-scale", defaultMaxScale, "max node count for server-side dataset graphs")
		sessionTTL    = flag.Duration("session-ttl", 30*time.Minute, "evict named sessions idle for longer (0 disables)")
		memBudget     = flag.String("mem-budget", "0", "total resident session memory budget in bytes, k/m/g suffix allowed; cold sessions spill to their logs in -data-dir (0 disables)")
		dataDir       = flag.String("data-dir", "", "persist sessions here (one append-only log of snapshots and deltas per session, rehydrated on boot); empty disables durability")
		walSync       = flag.Bool("wal-sync", true, "fsync each delta's log append before acking it")
		walCompact    = flag.Int("wal-compact", 256, "append a fresh snapshot to a session's log every N deltas, bounding replay on load")
		queueWait     = flag.Duration("queue-wait", time.Second, "reject with 429 when no selection slot frees within this (0 queues until the request deadline)")
		pprofAddr     = flag.String("pprof", "", "serve the debug listener (pprof, expvar, /metrics) on this address (empty disables)")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (debug shows every request)")
		slowReq       = flag.Duration("slow-request", 2*time.Second, "log requests slower than this at warn with a stage breakdown (0 disables)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("tppd: -log-level: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	budgetBytes, err := parseByteSize(*memBudget)
	if err != nil {
		log.Fatalf("tppd: -mem-budget: %v", err)
	}
	if err := validateConfig(daemonConfig{
		queueWait:  *queueWait,
		sessionTTL: *sessionTTL,
		walCompact: *walCompact,
		memBudget:  budgetBytes,
		dataDir:    *dataDir,
	}); err != nil {
		log.Fatalf("tppd: %v", err)
	}

	service := NewServer(*maxConcurrent, *maxBody, *reqTimeout, *maxScale, *sessionTTL)
	service.ConfigureLogging(logger, *slowReq)
	service.ConfigureBackpressure(*queueWait)
	if *dataDir != "" {
		store, err := durable.Open(*dataDir, durable.Options{
			SyncWrites:   *walSync,
			CompactEvery: *walCompact,
			Metrics:      service.durableMetrics(),
		})
		if err != nil {
			log.Fatalf("tppd: opening -data-dir: %v", err)
		}
		restored, quarantined, err := service.ConfigureDurability(context.Background(), store, budgetBytes)
		if err != nil {
			log.Fatalf("tppd: rehydrating sessions: %v", err)
		}
		log.Printf("tppd: durability on (%s): %d sessions rehydrated, %d quarantined",
			*dataDir, restored, quarantined)
	}

	if *pprofAddr != "" {
		// The debug listener gets its own address so /debug/pprof and
		// /debug/vars are never reachable through the service port. The
		// service port stays the scrape target for production Prometheus;
		// /metrics is mirrored here only so a single debug port suffices
		// when the service port is firewalled off.
		go func() {
			debugMux := http.NewServeMux()
			debugMux.Handle("/debug/", http.DefaultServeMux) // pprof + expvar
			debugMux.Handle("/metrics", service.MetricsHandler())
			log.Printf("tppd: debug listener (pprof, expvar, metrics) on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, debugMux); err != nil {
				log.Printf("tppd: debug listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("tppd: listening on %s (max-concurrent %d, mem-budget %d, request-timeout %s)",
		*addr, *maxConcurrent, budgetBytes, *reqTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// The listener died on its own (e.g. the address was taken).
		log.Fatalf("tppd: %v", err)
	case <-ctx.Done():
		// Graceful drain: flip /v1/healthz to 503 so load balancers stop
		// routing here, stop accepting, wait for in-flight selections
		// (bounded), then stop the session janitor and release the named
		// sessions before letting main return.
		service.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tppd: shutdown: %v", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("tppd: %v", err)
		}
		service.Close()
	}
	log.Printf("tppd: stopped")
}
