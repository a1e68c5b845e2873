// Package par is the one intra-request fan-out: every query and Debug
// that spreads over cores runs through Do, and only par reads GOMAXPROCS.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

var procs = runtime.GOMAXPROCS(0) // read once, so every Width and Do agree

// Width is the most workers Do(n, fn) uses: fn sees ids in [0, Width(n)).
func Width(n int) int { return max(1, min(n, procs)) }

// A helperPanic is a helper's panic re-raised on the caller of Do, with
// the helper's stack; errors.As sees an error value (a SegmentLoadError).
type helperPanic struct {
	value any
	stack []byte
}

func (p *helperPanic) Error() string { return fmt.Sprintf("%v\n[par.Do helper]\n%s", p.value, p.stack) }
func (p *helperPanic) Unwrap() error { err, _ := p.value.(error); return err }

// Do runs fn(w, i) once for every i in [0, n), in index order, on the
// caller (worker 0) and Width(n)-1 helpers; no answer may depend on w.
// A panic stops further items and leaves once every helper has: the
// caller's own unwinds in place, a helper's as an error with its stack.
func Do(n int, fn func(w, i int)) {
	var next atomic.Int64 // set to n to stop: no further item starts
	var failure atomic.Pointer[helperPanic]
	var wg sync.WaitGroup
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	for w := 1; w < Width(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failure.CompareAndSwap(nil, &helperPanic{r, debug.Stack()})
					next.Store(int64(n))
				}
			}()
			work(w)
		}()
	}
	defer func() { next.Store(int64(n)); wg.Wait() }() // the caller's own panic: stop, never recover
	work(0)
	wg.Wait()
	if p := failure.Load(); p != nil {
		panic(p)
	}
}
