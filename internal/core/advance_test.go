package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/testgen"
)

// carriedFixture draws a statement, a suspect selection with user
// examples and a first Debug whose ranking a later pass can carry.
func carriedFixture(t *testing.T, rng *rand.Rand, opt Options) (*engine.Table, *exec.Result, DebugRequest, *DebugResult) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		tbl := testgen.Table(rng, 250)
		res, err := exec.Run(t.Context(), tbl, testgen.DebugStmt(rng))
		if err != nil {
			continue
		}
		suspect := testgen.Suspects(rng, res)
		if len(suspect) == 0 {
			continue
		}
		// User-highlighted examples, so the carried pass cleans D' on the
		// profile-only feature space.
		var examples []int
		for _, r := range res.Lineage(suspect) {
			if rng.Float64() < 0.4 {
				examples = append(examples, r)
			}
		}
		req := DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Examples: examples, Metric: testgen.Metric(rng), Opt: opt}
		if prev, err := Debug(req); err == nil && len(examples) >= 4 && prev.state.rstate.Len() > 0 {
			return tbl, res, req, prev
		}
	}
	t.Fatal("never drew a carriable Debug")
	return nil, nil, DebugRequest{}, nil
}

// TestDebugAdvanceChainRetainsNothing runs a long carried chain the way
// a monitoring session does — only the latest DebugResult is kept — and
// checks the early passes' scorers (each holds an argument view the
// size of the table) are garbage: a carried analysis that linked back
// to the pass it was carried from would keep every one of them alive.
func TestDebugAdvanceChainRetainsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tbl, advRes, req, prev := carriedFixture(t, rng, Options{DriftThreshold: math.Inf(1)})
	const watched = 6
	var collected atomic.Int32
	for step := 0; step < 24; step++ {
		// No suspect group ever grows: the ranking is shared down the whole
		// chain, the arm on which a link could be kept.
		grown, err := tbl.AppendBatch(freshGroupBatch(rng, 5, step))
		if err != nil {
			t.Fatal(err)
		}
		if advRes, err = exec.AdvanceCtx(t.Context(), advRes, grown); err != nil {
			t.Fatal(err)
		}
		tbl, req.Result = grown, advRes
		got, err := DebugAdvance(prev, req)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got.Plan.Mode != "carried" {
			t.Fatalf("step %d: plan %+v, want carried", step, got.Plan)
		}
		if &got.Influence.Influences[0] != &prev.Influence.Influences[0] {
			t.Fatalf("step %d: the influence ranking was recomputed", step)
		}
		if step < watched {
			runtime.SetFinalizer(got.Influence.Scorer, func(*influence.Scorer) { collected.Add(1) })
		}
		prev = got
	}
	for i := 0; i < 20 && collected.Load() < watched; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
	if n := collected.Load(); n < watched {
		t.Fatalf("%d of the first %d passes' scorers are still reachable from the latest DebugResult", watched-int(n), watched)
	}
	runtime.KeepAlive(prev)
}

// TestDebugAdvanceFallbacks pins what the generator never draws: a
// result over another table family runs a full Debug and says so, and an
// out-of-range suspect is an error, not a fingerprint.
func TestDebugAdvanceFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, res, asked, prev := carriedFixture(t, rng, Options{})
	again := asked
	again.Suspect = []int{res.NumRows()}
	if _, err := DebugAdvance(prev, again); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range suspect: %v", err)
	}
	for again.Result = nil; again.Result == nil || again.Result.NumRows() == 0; {
		again.Result = must(exec.Run(t.Context(), testgen.Table(rng, 100), res.Stmt))
	}
	again.Suspect, again.Examples = []int{0}, nil
	if dr, err := DebugAdvance(prev, again); err != nil || dr.Plan.Mode != "full" || dr.Plan.Fallback != "source table changed" {
		t.Fatalf("changed table: %v, %+v", err, dr)
	}
}
