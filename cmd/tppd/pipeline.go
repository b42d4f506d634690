package main

// The request pipeline every tppd route shares. A request passes through
// at most these layers, and each has exactly one call site:
//
//	decode   one JSON value from the body, else 400          (decode)
//	slot     the request deadline and a selection slot,
//	         else 429 / 504 / 499                             (work)
//	session  the locked record the path names, rehydrated
//	         from disk on a miss, else 404                    (withSession)
//	work     the route's own step: create, delta, protect,
//	         and its reply, encoded while the record is held  (protect, ...)
//	release  record slot, then selection slot, each once
//	write    the encoded reply, written with nothing held     (respond)
//
// The lock order is always selection slot → record slot: a request queueing
// for a selection slot holds no session lock, so cheap GET and DELETE calls
// on a session never hang behind work that has not started.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dynamic"
	"repro/internal/tpp"
)

// reply is a pipeline step's answer, already encoded: its status, its
// body and, on a 429, the Retry-After seconds. Steps that read a session
// encode while its record slot is held; respond writes the bytes once
// every slot the request took is handed back.
type reply struct {
	status     int
	body       *jsonBuf
	retryAfter int // seconds; 0 sends no Retry-After
}

// replyError is the error reply {"error": msg} with status.
func replyError(status int, msg string) reply {
	return reply{status: status, body: newJSONBuf().errorReply(msg)}
}

// failed is the reply for err, with the status runErrorStatus maps it to.
func failed(err error) reply {
	return replyError(runErrorStatus(err), err.Error())
}

// respond writes rp as the response and hands its buffer back.
func respond(w http.ResponseWriter, rp reply) {
	if rp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rp.retryAfter))
	}
	writeBody(w, rp.status, rp.body.b)
	rp.body.free()
}

func writeRunError(w http.ResponseWriter, err error) {
	respond(w, failed(err))
}

// badRequest marks an error as the client's mistake (a malformed body, a
// bad option, data that does not fit the graph): 400 with its own message.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// statusClientClosedRequest is nginx's convention for a request aborted by
// the client; no stdlib constant exists.
const statusClientClosedRequest = 499

// runErrorStatus maps an error to an HTTP status: caller mistakes (typed
// option errors, invalid deltas, badRequest) to 400, deadline to 504,
// client cancellation to 499, anything else to 500.
func runErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.As(err, new(badRequest)),
		errors.Is(err, tpp.ErrUnknownMethod),
		errors.Is(err, tpp.ErrUnknownDivision),
		errors.Is(err, tpp.ErrNegativeBudget),
		errors.Is(err, tpp.ErrPatternFixed),
		errors.Is(err, dynamic.ErrInvalid):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// work is the pipeline's slot step: it runs fn under the request deadline
// (timeout_ms clamped to -request-timeout) holding one selection slot, and
// writes fn's reply only after the slot is handed back, so a slow reader
// cannot pin a slot the CPU is done with.
func (s *Server) work(w http.ResponseWriter, r *http.Request, timeoutMS int64, fn func(ctx context.Context) reply) {
	ctx, cancel := s.requestContext(r.Context(), timeoutMS)
	defer cancel()
	respond(w, s.holdingSlot(ctx, fn))
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

// holdingSlot runs fn holding a selection slot and hands the slot back
// exactly once, folding the hold time into the service-time EWMA that
// Retry-After derives from. A request that gets no slot is answered 429
// when the queue-wait budget ran out and 504/499 when its deadline or its
// client did.
func (s *Server) holdingSlot(ctx context.Context, fn func(ctx context.Context) reply) reply {
	if err := s.acquireSlot(ctx); err != nil {
		if errors.Is(err, errServerBusy) {
			return s.busy(err.Error())
		}
		return failed(err)
	}
	start := time.Now()
	defer func() {
		s.observeService(time.Since(start))
		<-s.sem
	}()
	return fn(ctx)
}

// errServerBusy reports that every selection slot stayed occupied for the
// whole queue-wait budget (or the queue is full).
var errServerBusy = errors.New("all selection slots busy; retry later")

// queueBound is the waiter cap per slot: c slots admit at most
// queueBound*c queued requests before fast-failing with 429, so the queue
// stays bounded even under a flood of distinct clients.
const queueBound = 8

// acquireSlot takes a selection slot: immediately if one is free,
// otherwise queueing up to the queue-wait budget (or the request deadline,
// whichever ends first) behind at most queueBound waiters per slot. With
// no queue-wait budget the queue is unbounded and waits for the deadline:
// the operator opted out of fast-fail backpressure.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	var expired <-chan time.Time // nil never fires: queue until the deadline
	if s.queueWait > 0 {
		if s.waiters.Load() >= int64(queueBound*cap(s.sem)) {
			s.metrics.busyRejections.Inc()
			return errServerBusy
		}
		t := time.NewTimer(s.queueWait)
		defer t.Stop()
		expired = t.C
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-expired:
		s.metrics.busyRejections.Inc()
		return errServerBusy
	}
}

// busyResponse is the 429 body: the error, the queue depth at rejection
// time, and the same back-off estimate the Retry-After header carries.
type busyResponse struct {
	Error             string `json:"error"`
	QueueDepth        int64  `json:"queue_depth"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// busy is the one 429 reply, for a full slot queue and for a create the
// memory budget cannot admit alike: the reason, the queue depth and an
// EWMA-derived back-off estimate.
func (s *Server) busy(reason string) reply {
	b := busyResponse{
		Error:             reason,
		QueueDepth:        s.waiters.Load(),
		RetryAfterSeconds: s.retryAfterSeconds(),
	}
	return reply{http.StatusTooManyRequests, newJSONBuf().busyReply(&b), b.RetryAfterSeconds}
}

// withSession is the pipeline's session step: it locks the record the
// path's {id} names (rehydrating a spilled one from disk), annotates the
// request log with it, runs fn and releases the record before returning,
// so the reply is written with no session lock held. An unknown id is 404;
// a deadline that ran out waiting for the record is 504/499.
func (s *Server) withSession(ctx context.Context, r *http.Request, fn func(rec *sessionRecord) reply) reply {
	id := r.PathValue("id")
	rec, err := s.lookup(ctx, id)
	if err != nil {
		return failed(err)
	}
	if rec == nil {
		return replyError(http.StatusNotFound, fmt.Sprintf("unknown session %q (expired, deleted, or never created)", id))
	}
	defer s.release(rec)
	annotateSession(ctx, rec.id)
	return fn(rec)
}

// runOptions is the option block every protect-carrying request shares:
// create and one-shot protect set a new session's defaults with it, a
// session protect overrides the session's for one run. An empty string or
// a nil number is unset.
type runOptions struct {
	method, division, engine string
	budget, workers          *int
	seed                     *int64
}

// parse is the one option parser. It rejects a bad spelling, a negative
// budget and negative workers, so a bad request is answered 400 before it
// takes a slot or leaves a trace on a session, and returns what the block
// sets as tpp options. With defaults set, as for a new session, an unset
// spelling resolves to the library default; otherwise it is left to the
// session. The engine is checked, not set: a session has one engine
// ("indexed"), and any other spelling, "recount" included, is a 400. The
// request log records the method resolved.
func (o runOptions) parse(ctx context.Context, defaults bool) ([]tpp.Option, error) {
	var opts []tpp.Option
	var method string
	if o.method != "" || defaults {
		m, err := tpp.ParseMethod(o.method)
		if err != nil {
			return nil, err
		}
		opts = append(opts, tpp.WithMethod(m))
		method = string(m)
	}
	if o.division != "" || defaults {
		d, err := tpp.ParseDivision(o.division)
		if err != nil {
			return nil, err
		}
		opts = append(opts, tpp.WithDivision(d))
	}
	if _, err := tpp.ParseEngine(o.engine); err != nil {
		return nil, err
	}
	if o.budget != nil {
		if *o.budget < 0 {
			return nil, fmt.Errorf("%w: %d", tpp.ErrNegativeBudget, *o.budget)
		}
		opts = append(opts, tpp.WithBudget(*o.budget))
	}
	if o.workers != nil {
		if *o.workers < 0 {
			return nil, fmt.Errorf("negative workers %d", *o.workers)
		}
		opts = append(opts, tpp.WithWorkers(*o.workers))
	}
	if o.seed != nil {
		opts = append(opts, tpp.WithSeed(*o.seed))
	}
	if sc := scopeFrom(ctx); sc != nil {
		sc.method = method
	}
	return opts, nil
}

// protect is the one protect path, shared by session protect and the
// one-shot protect's unpublished record: run the selection with the
// per-run options and count the run and its selections. The caller holds
// rec's slot, or rec is unpublished, and encodes the reply (protectReply)
// before letting go of it. A run that starts dirties the session even if
// it fails: its warm state may have moved.
func (s *Server) protect(ctx context.Context, rec *sessionRecord, opts []tpp.Option) (*tpp.Result, error) {
	s.metrics.protectRequests.Inc()
	s.metrics.inflightRuns.Add(1)
	rec.dirty = true
	sess := rec.session
	warm, cold, falls := sess.WarmRuns(), sess.ColdRuns(), sess.WarmFallbacks()
	res, err := sess.Run(ctx, opts...)
	s.metrics.inflightRuns.Add(-1)
	// Count this run's selections by difference, so a rehydrated session's
	// restored history is never counted again.
	s.metrics.warmRuns.Add(int64(sess.WarmRuns() - warm))
	s.metrics.coldRuns.Add(int64(sess.ColdRuns() - cold))
	s.metrics.warmFallbacks.Add(int64(sess.WarmFallbacks() - falls))
	if err != nil {
		return nil, err
	}
	rec.runs++
	return res, nil
}

// protectReply encodes res as the 200 reply from rec's current state
// (budget nil echoes the session's default); withTargets adds the target
// echo of the one-shot protect. The caller holds rec's slot, or rec is
// unpublished.
func (rec *sessionRecord) protectReply(res *tpp.Result, budget *int, withTargets, omitReleased bool) reply {
	if budget == nil {
		budget = &rec.defaultBudget
	}
	body := newJSONBuf().protectReply(res, rec.session.Problem(), rec.lab, *budget, withTargets, omitReleased)
	return reply{status: http.StatusOK, body: body}
}
