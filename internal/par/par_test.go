package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEveryIndexOnce(t *testing.T) {
	for n := 0; n <= 3*procs; n++ {
		runs := make([]atomic.Int32, n)
		Do(n, func(w, i int) {
			if w < 0 || w >= Width(n) {
				t.Errorf("n=%d: worker %d outside [0, %d)", n, w, Width(n))
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d: item %d ran %d times", n, i, got)
			}
		}
	}
}

type boom struct{ i int }

// raiseBoom is a named frame the tests look for in the stack a panic
// reaches the caller with.
func raiseBoom(i int) { panic(boom{i}) }

// value strips the *helperPanic a helper's panic arrives in.
func value(r any) any {
	if p, ok := r.(*helperPanic); ok {
		return p.value
	}
	return r
}

// TestPanicReachesCaller: every panic leaves Do on the caller, carrying
// the frame that raised it, and no item starts after it.
func TestPanicReachesCaller(t *testing.T) {
	// The caller's own item unwinds unrecovered: a deferred handler above
	// Do (the server's withRecovery) still sees the raising frame.
	t.Run("from the caller", func(t *testing.T) {
		defer func() {
			r, stack := recover(), string(debug.Stack())
			if r != (boom{0}) {
				t.Fatalf("recovered %v, want boom{0} unwrapped", r)
			}
			if !strings.Contains(stack, "par.raiseBoom") {
				t.Fatalf("stack at the handler lacks the raising frame:\n%s", stack)
			}
		}()
		Do(1, func(_, i int) { raiseBoom(i) })
	})

	// A helper's panic is re-raised on the caller as a *helperPanic whose
	// stack and message carry the helper's raising frame.
	t.Run("from a helper", func(t *testing.T) {
		if Width(2) < 2 {
			t.Skip("GOMAXPROCS 1: Do starts no helper")
		}
		helperRan := make(chan struct{})
		defer func() {
			p, ok := recover().(*helperPanic)
			if !ok || p.value != (boom{-1}) {
				t.Fatalf("recovered %v, want *helperPanic{boom{-1}}", p)
			}
			if !strings.Contains(string(p.stack), "par.raiseBoom") || !strings.Contains(fmt.Sprint(p), "par.raiseBoom") {
				t.Fatalf("re-raised panic lacks the helper's raising frame:\n%v", p)
			}
		}()
		Do(2, func(w, _ int) {
			if w == 0 {
				select {
				case <-helperRan:
				case <-time.After(10 * time.Second):
					t.Error("no helper ran the other item")
				}
				return
			}
			close(helperRan)
			raiseBoom(-1)
		})
	})

	// errors.As sees an error a helper raised, so engine.CatchSegmentLoad
	// still matches a helper's *engine.SegmentLoadError.
	t.Run("error value", func(t *testing.T) {
		err := fmt.Errorf("wrapped: %w", errors.ErrUnsupported)
		var p error = &helperPanic{value: err}
		if !errors.Is(p, errors.ErrUnsupported) {
			t.Fatalf("errors.Is does not see through %v", p)
		}
		if (&helperPanic{value: boom{1}}).Unwrap() != nil {
			t.Fatal("a non-error value unwraps to an error")
		}
	})

	// Items already running finish, but the rest never start.
	t.Run("many items", func(t *testing.T) {
		const n = 1 << 20
		var started atomic.Int32
		defer func() {
			if got := value(recover()); got != (boom{10}) {
				t.Fatalf("recovered %v, want boom{10}", got)
			}
			if s := started.Load(); s >= n/2 {
				t.Fatalf("%d of %d items started after a panic at item 10", s, n)
			}
		}()
		Do(n, func(_, i int) {
			started.Add(1)
			if i == 10 {
				raiseBoom(i)
			}
		})
	})
}
