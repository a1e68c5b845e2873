// Package chaos is the request-lifecycle fault harness. It pins the
// PR's central invariant — cancellation never corrupts carried state —
// the same way the store's crash tests pin durability: not by sampling
// random timings, but by enumerating every failpoint.
//
// The instrument is CancelAfter, a context whose Err() trips Canceled
// on the nth poll. Every cancellable loop in the system (exec's scan
// shards, influence's LOO pass, ranker's scoring pool, core's learner
// stages, the store's pre-WAL gate) polls ctx.Err() at its failpoints,
// so "cancel at the nth poll" lands a cancellation at the nth failpoint
// deterministically — the cancellation twin of FaultFS.FailAt. A first
// run under a counting context that never trips measures how many
// failpoints an operation crosses; the matrix then replays the
// operation once per failpoint and asserts that after each cancelled
// attempt the carried state (cached exec results, debug analyses, the
// published table) is either untouched or fully published: retrying the
// operation uncancelled must produce a result bit-identical to a
// from-scratch oracle.
//
// On top of the matrix, the package's tests run a deadline storm
// (every request must be classified exactly once by the server's
// lifecycle counters) and a concurrent soak mixing ingest, queries,
// debugging and retention with FaultFS faults and random cancellations,
// asserting no goroutine leaks and oracle-identical re-queries.
//
// CancelAfter is poll-driven: code that waits on Done() instead of
// polling Err() will not observe the trip until the next Err() call
// closes the channel. The repo's cancellable loops all poll, which is
// exactly what the harness counts.
package chaos

import (
	"context"
	"sync"
	"time"
)

// Ctx is a deterministic cancellation failpoint (see the package doc).
// It implements context.Context.
type Ctx struct {
	mu        sync.Mutex
	remaining int // polls left before the trip; -1 = never trip
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

// counting returns a context that never trips but counts polls.
func counting() *Ctx {
	return &Ctx{remaining: -1, done: make(chan struct{})}
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

// Polls reports how many times Err was called so far.
func (c *Ctx) Polls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// CountPolls runs op under a never-cancelling counting context and
// reports how many failpoints it crossed — the size of the matrix a
// test must enumerate. The operation's own result is returned too so
// callers can reuse it as the oracle.
func CountPolls(op func(ctx context.Context) error) (int, error) {
	c := counting()
	err := op(c)
	return c.Polls(), err
}
