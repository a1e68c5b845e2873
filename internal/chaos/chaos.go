// Package chaos is the request-lifecycle fault harness: one
// cancellation instrument, and the server-level tests that only a whole
// server can run. Like the store's crash matrix, it pins "cancellation
// never corrupts carried state" by enumerating failpoints, not by
// sampling random timings.
//
// The instrument is CancelAfter, a context whose Err() trips Canceled
// on the nth poll. Every cancellable loop in the system (exec's fold
// blocks, influence's LOO pass, ranker's scoring, core's learner
// stages, the store's pre-WAL gate) polls ctx.Err() at its failpoints,
// so "cancel at the nth poll" lands a cancellation at the nth failpoint
// deterministically — the cancellation twin of vfstest.MemFS.FailAt.
// CancelEach counts an operation's polls and replays it cancelled at
// each: a cancelled attempt returns nothing and Canceled, and a retry
// right after it passes the caller's check.
//
// Each layer's harness calls CancelEach: exec's differential generator
// cancels a step's Run or AdvanceCtx and its first Provenance read at
// every failpoint (its TestMatrix* profiles), the Debug carry's
// generator in internal/core cancels a DebugAdvance, and the store's
// TestMatrixStore cancels AppendCtx and RetainCtx beside its crash
// matrix. The server's session generator (internal/server) sends
// requests under CancelAfter at a drawn poll, and its
// TestMatrixDebugLoadFailure fails each read of an out-of-core Debug in
// turn. What stays here needs concurrent clients of a whole server: a
// deadline storm (every request classified exactly once by the server's
// lifecycle counters) and a concurrent soak mixing ingest, queries,
// debugging and retention with vfstest.MemFS faults and random
// cancellations (no goroutine leaks, oracle-identical re-queries).
//
// CancelAfter is poll-driven: code that waits on Done() instead of
// polling Err() will not observe the trip until the next Err() call
// closes the channel. The repo's cancellable loops all poll, which is
// exactly what the harness counts; a par.Do fan-out polls once per
// item, so the count does not depend on how many helpers it got.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Ctx is a deterministic cancellation failpoint (see the package doc).
// It implements context.Context.
type Ctx struct {
	mu        sync.Mutex
	remaining int // polls left before the trip; < 0: never
	polls     int
	tripped   bool
	done      chan struct{}
}

// CancelAfter returns a context that reports Canceled on the (n+1)th
// and every later Err() poll — n == 0 cancels the very first failpoint
// an operation crosses.
func CancelAfter(n int) *Ctx {
	return &Ctx{remaining: n, done: make(chan struct{})}
}

// Err implements context.Context.
func (c *Ctx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.tripped {
		return context.Canceled
	}
	if c.remaining == 0 {
		c.tripped = true
		close(c.done)
		return context.Canceled
	}
	if c.remaining > 0 {
		c.remaining--
	}
	return nil
}

// Done implements context.Context; the channel closes when the counter
// trips (inside an Err poll), never spontaneously.
func (c *Ctx) Done() <-chan struct{} { return c.done }

// Deadline implements context.Context: there is none.
func (c *Ctx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Value implements context.Context: there are no values.
func (c *Ctx) Value(any) any { return nil }

// CancelEach runs op once under a context that never trips, counting
// its n polls, then replays it cancelled at each of them — at most 64,
// the ith of m at poll i*n/m. A cancelled attempt must return T's zero
// value and an error wrapping context.Canceled, and the retry right
// after it must pass check(counted, retry, err), counted being what the
// counting run returned; an attempt that ends before its poll comes must
// pass check itself. An op that fails uncancelled has nothing to cancel:
// CancelEach returns 0 and no error. Otherwise it reports how many
// attempts were cancelled, or the first broken promise.
func CancelEach[T comparable](op func(context.Context) (T, error), check func(counted, got T, err error) error) (cancelled int, _ error) {
	var zero T
	counter := CancelAfter(-1) // never trips
	counted, err := op(counter)
	if err != nil {
		return 0, nil
	}
	counter.mu.Lock()
	n := counter.polls
	counter.mu.Unlock()
	for i, m := 0, min(n, 64); i < m; i++ {
		at := i * n / m
		out, err := op(CancelAfter(at))
		if err == nil { // the count shrank: an attempt that ends answers in full
			if err := check(counted, out, nil); err != nil {
				return cancelled, fmt.Errorf("uncancelled at poll %d of %d: %w", at, n, err)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) || out != zero {
			return cancelled, fmt.Errorf("cancelled at poll %d of %d: returned %v, %v", at, n, out, err)
		}
		cancelled++
		retry, err := op(context.Background())
		if err := check(counted, retry, err); err != nil {
			return cancelled, fmt.Errorf("retried after a cancel at poll %d of %d: %w", at, n, err)
		}
	}
	return cancelled, nil
}
