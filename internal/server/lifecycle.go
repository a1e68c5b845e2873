package server

// This file is the request-lifecycle layer: per-request deadlines,
// admission control for heavy operations, load shedding with
// Retry-After hints, and per-endpoint accounting. Handlers themselves
// stay oblivious — Handler() wraps each route in withLifecycle, and the
// request's context carries the deadline down through exec, influence,
// ranker, core and store (see their *Ctx entry points).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
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

// endpointCounters is one endpoint's lifecycle accounting. Every
// request increments total on arrival and exactly one of completed,
// shed, deadline or cancelled on departure, so at any quiescent point
// total == completed + shed + deadline + cancelled.
type endpointCounters struct {
	inFlight  atomic.Int64
	total     atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	deadline  atomic.Int64
	cancelled atomic.Int64
}

// endpointStats is endpointCounters over the wire (/api/stats).
type endpointStats struct {
	InFlight  int64 `json:"in_flight"`
	Total     int64 `json:"total"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Deadline  int64 `json:"deadline_exceeded"`
	Cancelled int64 `json:"cancelled"`
}

func (c *endpointCounters) stats() endpointStats {
	return endpointStats{
		InFlight:  c.inFlight.Load(),
		Total:     c.total.Load(),
		Completed: c.completed.Load(),
		Shed:      c.shed.Load(),
		Deadline:  c.deadline.Load(),
		Cancelled: c.cancelled.Load(),
	}
}

// lifecycle holds the server's admission state: the heavy-op semaphore,
// the queue depth, and the per-endpoint counters.
type lifecycle struct {
	limits Limits
	sem    chan struct{}
	queued atomic.Int64

	mu  sync.Mutex
	eps map[string]*endpointCounters
}

func newLifecycle(l Limits) *lifecycle {
	l = l.withDefaults()
	return &lifecycle{
		limits: l,
		sem:    make(chan struct{}, l.MaxHeavy),
		eps:    make(map[string]*endpointCounters),
	}
}

// SetLimits replaces the lifecycle limits (zero fields take defaults).
// Call before Handler() is serving traffic: it swaps the admission
// semaphore, so slots held across the swap would not be returned to
// the new one.
func (s *Server) SetLimits(l Limits) {
	counters := s.lc.eps
	s.lc = newLifecycle(l)
	s.lc.eps = counters // keep any counters wired into existing handlers
}

// counters returns (creating if needed) the named endpoint's counters.
func (lc *lifecycle) counters(name string) *endpointCounters {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	c, ok := lc.eps[name]
	if !ok {
		c = &endpointCounters{}
		lc.eps[name] = c
	}
	return c
}

// endpointStats snapshots every endpoint's counters for /api/stats.
func (lc *lifecycle) endpointStats() map[string]endpointStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]endpointStats, len(lc.eps))
	for name, c := range lc.eps {
		out[name] = c.stats()
	}
	return out
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

// withLifecycle wraps one endpoint: it stamps the request context with
// the class deadline, runs heavy requests through admission control
// (shedding with 429 + Retry-After when the wait queue is full), and
// classifies every request exactly once on the way out — completed,
// shed, deadline_exceeded or cancelled — so the /api/stats counters
// account for the whole request stream.
func (s *Server) withLifecycle(name string, class requestClass, h http.HandlerFunc) http.HandlerFunc {
	c := s.lc.counters(name)
	return func(w http.ResponseWriter, r *http.Request) {
		lc := s.lc
		c.total.Add(1)
		c.inFlight.Add(1)
		defer c.inFlight.Add(-1)

		ctx := r.Context()
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
			switch {
			case shed:
				c.shed.Add(1)
			case errors.Is(ctx.Err(), context.DeadlineExceeded):
				c.deadline.Add(1)
			case errors.Is(ctx.Err(), context.Canceled):
				c.cancelled.Add(1)
			default:
				c.completed.Add(1)
			}
		}()

		if class == classHeavy {
			release, ok, err := lc.admit(ctx)
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
