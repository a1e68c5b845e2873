package server

// This file is the request-lifecycle layer: per-request deadlines,
// admission control for heavy operations, load shedding with
// Retry-After hints, and per-endpoint accounting. Handlers themselves
// stay oblivious — Handler() wraps each route in withLifecycle, and the
// request's context carries the deadline and its obs.Record down through
// exec, influence, ranker, core and store (see their *Ctx entry points).

import (
	"cmp"
	"context"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// Limits bounds the server's request lifecycle. Zero fields take the
// defaults below; a negative duration disables that deadline class
// (the request then runs under the client's connection context only).
type Limits struct {
	// QueryTimeout is the default deadline for interactive reads
	// (/api/query, /api/suggest, /api/zoom, /api/clean, /api/reset and
	// the GET endpoints).
	QueryTimeout time.Duration
	// DebugTimeout is the default deadline for /api/debug, the most
	// expensive operation (lineage + influence + predicate enumeration).
	DebugTimeout time.Duration
	// IngestTimeout is the default deadline for /api/append and
	// /api/retention. Note the store only honors cancellation BEFORE
	// its WAL commit point: once the batch is logged it runs to
	// completion, so a fired deadline never half-publishes a batch.
	IngestTimeout time.Duration
	// MaxTimeout caps per-request ?timeout= overrides so a client
	// cannot pin a worker forever.
	MaxTimeout time.Duration
	// MaxHeavy is the number of heavy operations (query/debug class)
	// allowed to run concurrently.
	MaxHeavy int
	// MaxQueue is how many heavy requests may wait for a slot beyond
	// MaxHeavy before new arrivals are shed with 429.
	MaxQueue int
	// RetryAfter is the hint written in the Retry-After header of shed
	// (429) and fail-stopped (503) responses.
	RetryAfter time.Duration
}

const (
	defaultQueryTimeout  = 15 * time.Second
	defaultDebugTimeout  = 60 * time.Second
	defaultIngestTimeout = 30 * time.Second
	defaultMaxTimeout    = 5 * time.Minute
	defaultMaxHeavy      = 4
	defaultMaxQueue      = 64
	defaultRetryAfter    = 1 * time.Second
)

// statusClientClosedRequest is the (nginx-convention) status recorded
// when the client went away mid-request; the client never sees it.
const statusClientClosedRequest = 499

func (l Limits) withDefaults() Limits {
	if l.QueryTimeout == 0 {
		l.QueryTimeout = defaultQueryTimeout
	}
	if l.DebugTimeout == 0 {
		l.DebugTimeout = defaultDebugTimeout
	}
	if l.IngestTimeout == 0 {
		l.IngestTimeout = defaultIngestTimeout
	}
	if l.MaxTimeout == 0 {
		l.MaxTimeout = defaultMaxTimeout
	}
	if l.MaxHeavy <= 0 {
		l.MaxHeavy = defaultMaxHeavy
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	} else if l.MaxQueue == 0 {
		l.MaxQueue = defaultMaxQueue
	}
	if l.RetryAfter <= 0 {
		l.RetryAfter = defaultRetryAfter
	}
	return l
}

// requestClass picks the deadline default and whether admission
// control applies.
type requestClass int

const (
	classLight  requestClass = iota // cached-result reads, metadata
	classHeavy                      // scans / ranking: admission-controlled
	classIngest                     // append/retention: deadline only
)

// lifecycle holds the server's admission state: the heavy-op semaphore
// and the queue depth.
type lifecycle struct {
	limits Limits
	sem    chan struct{}
	queued atomic.Int64
}

func newLifecycle(l Limits) *lifecycle {
	l = l.withDefaults()
	return &lifecycle{limits: l, sem: make(chan struct{}, l.MaxHeavy)}
}

// SetLimits replaces the lifecycle limits (zero fields take defaults).
// Call before Handler() is serving traffic: it swaps the admission
// semaphore, so slots held across the swap would not be returned to
// the new one.
func (s *Server) SetLimits(l Limits) { s.lc = newLifecycle(l) }

// scanCounters are the registry's scan section, summed by recordScan from
// each query's exec.PlanInfo: zone-map segment skips, chunk pins split
// into faults and memory hits, the WHERE conjuncts a filter walk never
// reached, residual filters and their per-row evaluations, GROUP BY keys
// run as typed chunk kernels, and scan blocks split on the ordered path.
var scanCounters = []string{"queries", "segs_skipped", "chunks_faulted", "chunks_resident",
	"conjuncts_skipped", "filters_residual", "residual_rows", "key_kernels", "ordered_blocks"}

// newStats makes the server's one counter registry, which /api/stats
// renders whole. endpoints.<name> is lifecycle accounting: a request adds
// to total on arrival and to one of completed, shed, deadline_exceeded or
// cancelled on departure, so at any quiescent point total is their sum.
// stages.<name> folds in each request's obs.Record at departure; scan
// holds scanCounters and two rates read off them. Nothing goes through
// expvar.Publish: the counters are this server's, not the process's.
func newStats() *expvar.Map {
	scan := new(expvar.Map).Init()
	for _, k := range scanCounters {
		scan.Add(k, 0)
	}
	// An empty denominator's numerator is 0 too, so max(…, 1) reads 0.
	get := func(k string) float64 { return float64(scan.Get(k).(*expvar.Int).Value()) }
	scan.Set("segs_skipped_per_query", expvar.Func(func() any { return get("segs_skipped") / max(get("queries"), 1) }))
	scan.Set("fault_rate", expvar.Func(func() any {
		return get("chunks_faulted") / max(get("chunks_faulted")+get("chunks_resident"), 1)
	}))
	stats := new(expvar.Map).Init()
	stats.Set("scan", scan)
	stats.Set("endpoints", new(expvar.Map).Init())
	stats.Set("stages", new(expvar.Map).Init())
	return stats
}

// endpoint returns name's lifecycle counters and stage totals in the
// registry, made on first use with every counter at zero.
func (s *Server) endpoint(name string) (*expvar.Map, *obs.Record) {
	eps, stages := s.stats.Get("endpoints").(*expvar.Map), s.stats.Get("stages").(*expvar.Map)
	if c, ok := eps.Get(name).(*expvar.Map); ok {
		return c, stages.Get(name).(*obs.Record)
	}
	c, rec := new(expvar.Map).Init(), new(obs.Record)
	for _, k := range []string{"in_flight", "total", "completed", "shed", "deadline_exceeded", "cancelled"} {
		c.Add(k, 0)
	}
	eps.Set(name, c)
	stages.Set(name, rec)
	return c, rec
}

// admit takes a heavy-op slot, waiting in the bounded queue when all
// slots are busy. Returns (release, true, nil) on admission; (nil,
// false, nil) when the queue is full and the request must be shed; and
// (nil, false, ctx.Err()) when the context fired while queued.
func (lc *lifecycle) admit(ctx context.Context) (release func(), ok bool, err error) {
	select {
	case lc.sem <- struct{}{}:
		return func() { <-lc.sem }, true, nil
	default:
	}
	if lc.queued.Add(1) > int64(lc.limits.MaxQueue) {
		lc.queued.Add(-1)
		return nil, false, nil
	}
	defer lc.queued.Add(-1)
	select {
	case lc.sem <- struct{}{}:
		return func() { <-lc.sem }, true, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// timeoutFor resolves the request's deadline: the class default,
// overridden by a ?timeout= duration, both capped by MaxTimeout.
// Returns 0 for "no deadline".
func (lc *lifecycle) timeoutFor(class requestClass, r *http.Request) time.Duration {
	var d time.Duration
	switch class {
	case classHeavy:
		if r.URL.Path == "/api/debug" {
			d = lc.limits.DebugTimeout
		} else {
			d = lc.limits.QueryTimeout
		}
	case classIngest:
		d = lc.limits.IngestTimeout
	default:
		d = lc.limits.QueryTimeout
	}
	if q := r.URL.Query().Get("timeout"); q != "" {
		if td, err := time.ParseDuration(q); err == nil && td > 0 {
			d = td
		}
	}
	if d < 0 {
		return 0
	}
	if lc.limits.MaxTimeout > 0 && d > lc.limits.MaxTimeout {
		d = lc.limits.MaxTimeout
	}
	return d
}

// retryAfterSeconds is the Retry-After header value: the configured
// hint rounded UP to whole seconds, minimum 1. The header has no
// sub-second form, and rounding down would understate the hint — a
// 400ms hint emitted as "0" (or 1.4s as "1") invites clients back
// before the backoff the operator asked for has elapsed, turning every
// shed into an immediate-retry stampede.
func (lc *lifecycle) retryAfterSeconds() string {
	secs := int((lc.limits.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// timedWriter is a lifecycle-wrapped response: it carries the request's
// obs.Record to writeJSON, and writing the status stamps the record on
// the response as its Server-Timing header.
type timedWriter struct {
	http.ResponseWriter
	rec *obs.Record
}

func (w timedWriter) WriteHeader(status int) {
	w.Header().Set("Server-Timing", w.rec.ServerTiming())
	w.ResponseWriter.WriteHeader(status)
}

// withLifecycle wraps one endpoint: it puts a fresh obs.Record (its
// Server-Timing header) and the class deadline on the request context,
// runs heavy requests through admission control (shedding with 429 +
// Retry-After when the wait queue is full), and classifies every request
// exactly once on the way out — completed, shed, deadline_exceeded or
// cancelled — so /api/stats accounts for the whole request stream.
func (s *Server) withLifecycle(name string, class requestClass, h http.HandlerFunc) http.HandlerFunc {
	c, stages := s.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		lc := s.lc
		c.Add("total", 1)
		c.Add("in_flight", 1)
		r.Body = http.MaxBytesReader(w, r.Body, cmp.Or(s.maxBodyBytes, defaultMaxBodyBytes))
		rec := new(obs.Record)
		w = timedWriter{w, rec}

		ctx := obs.With(r.Context(), rec)
		if d := lc.timeoutFor(class, r); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		r = r.WithContext(ctx)

		shed := false
		defer func() {
			// Exactly-once departure classification. A request that shed
			// counts as shed even if its deadline also fired while it was
			// being rejected; otherwise the context's state at departure
			// decides.
			outcome := "completed"
			switch {
			case shed:
				outcome = "shed"
			case errors.Is(ctx.Err(), context.DeadlineExceeded):
				outcome = "deadline_exceeded"
			case errors.Is(ctx.Err(), context.Canceled):
				outcome = "cancelled"
			}
			c.Add(outcome, 1)
			c.Add("in_flight", -1)
			stages.Add(rec)
		}()

		if class == classHeavy {
			span := rec.Start(obs.Admit)
			release, ok, err := lc.admit(ctx)
			span.End()
			if err != nil {
				writeReqErr(s, w, fmt.Errorf("server: queued for admission: %w", err))
				return
			}
			if !ok {
				shed = true
				w.Header().Set("Retry-After", lc.retryAfterSeconds())
				writeJSON(w, http.StatusTooManyRequests, map[string]any{
					"error":     "server overloaded: admission queue full",
					"reason":    "overload",
					"retryable": true,
				})
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// writeReqErr maps an execution error to the lifecycle-aware status:
// a fired deadline is 504, a client that went away is 499 (recorded,
// never seen), a fail-stopped table is 503 with Retry-After and a
// machine-readable reason (the table is wedged until an operator
// intervenes — clients should back off, not fail the batch). A stored
// segment that failed to load answers in the same shape: a damaged one
// (a column section that failed its checksum on first read, and was
// quarantined) is a 500 "segment-unreadable" that no retry cures; any
// other load failure is an I/O error on an undamaged file, a 503
// "segment-load-failed" worth retrying. Anything else is the handler's
// plain 400.
func writeReqErr(s *Server, w http.ResponseWriter, err error) {
	var sle *engine.SegmentLoadError
	switch {
	case errors.Is(err, store.ErrFailStopped):
		w.Header().Set("Retry-After", s.lc.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":     err.Error(),
			"reason":    "fail-stopped",
			"retryable": true,
		})
	case errors.As(err, &sle) && errors.Is(err, store.ErrQuarantined):
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":     err.Error(),
			"reason":    "segment-unreadable",
			"retryable": false,
		})
	case errors.As(err, &sle):
		w.Header().Set("Retry-After", s.lc.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":     err.Error(),
			"reason":    "segment-load-failed",
			"retryable": true,
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeErr(w, statusClientClosedRequest, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// acquire takes the session lock, giving up when ctx fires — a request
// whose deadline expires while a slow debug holds its session must
// return 504, not pile up on the mutex. Pair with release.
func (sess *session) acquire(ctx context.Context) error {
	defer obs.Start(ctx, obs.Lock).End()
	select {
	case sess.lockCh <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: waiting for session lock: %w", ctx.Err())
	}
}

// tryAcquire takes the session lock only if it is free (the /api/stats
// scan uses it so statistics never block behind a slow debug).
func (sess *session) tryAcquire() bool {
	select {
	case sess.lockCh <- struct{}{}:
		return true
	default:
		return false
	}
}

func (sess *session) release() { <-sess.lockCh }
