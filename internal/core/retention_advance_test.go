package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/exec"
	"repro/internal/predicate"
	"repro/internal/testgen"
)

// TestDebugAdvanceRetentionDifferential is the three-layer harness
// across retention horizons: append chains on a minimum-segment table
// with interleaved whole-segment drops, every step checking DebugAdvance
// over the carried chain against the oracles of advanceStep on the
// retained window. A step across a horizon (the
// base moved since the carried pass) must be a full Debug with a
// "retention:" reason; a step within one base asking the same question
// must be carried.
func TestDebugAdvanceRetentionDifferential(t *testing.T) {
	const seeds, iters = 4, 3
	compared, horizons, within, distinct := 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 919))
		tbl := testgen.TableSeg(rng, 100+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < iters; iter++ {
			stmt := debugStmt(rng, iter == 0)
			advRes, err := exec.Run(t.Context(), tbl, stmt)
			if err != nil {
				continue
			}
			metric := testgen.Metric(rng)
			opt := Options{DriftThreshold: math.Inf(1)} // always carry once seeded
			var prev *DebugResult
			var suspect, examples []int
			prevBase := 0
			cur := tbl
			for step := 0; step < 4; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				dropped := 0
				if rng.Intn(2) == 0 {
					cur, dropped = enginetest.RetainStep(rng, cur)
					if dropped > 0 {
						horizons++
					}
				}
				advRes, err = exec.AdvanceCtx(t.Context(), advRes, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				fresh, err := exec.Run(t.Context(), cur, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v", seed, iter, step, err)
				}
				// Suspects are output rows, which a drop renumbers: the
				// question is asked again after one, and stands otherwise.
				if suspect == nil || dropped > 0 {
					var ok bool
					if suspect, examples, ok = drawRequest(rng, fresh); !ok {
						continue
					}
				}
				label := fmt.Sprintf("seed %d iter %d step %d drop %d [%s]", seed, iter, step, dropped, stmt.String())
				req := DebugRequest{
					Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				}
				crossed := prev != nil && cur.Base() != prevBase
				same := !crossed && carries(prev, req)
				got := advanceStep(t, label, prev, req, fresh)
				if got == nil {
					prev, suspect = nil, nil
					continue
				}
				compared++
				if crossed && (got.Plan.Mode != "full" || !strings.HasPrefix(got.Plan.Fallback, "retention:")) {
					t.Fatalf("%s: crossed a retention horizon without a full Debug and a retention reason: %+v", label, got.Plan)
				}
				if same && got.Plan.Mode != "carried" {
					t.Fatalf("%s: the same question within one base was not carried: %+v", label, got.Plan)
				}
				if same {
					within++
					if stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
						distinct++
					}
				}
				prev, prevBase = got, cur.Base()
			}
			tbl = cur
		}
	}
	t.Logf("compared %d steps across %d retention horizons, %d carried within one base, %d carrying a count(DISTINCT s) debug", compared, horizons, within, distinct)
	if compared < 10 || horizons < 3 || within == 0 || distinct == 0 {
		t.Fatalf("harness degenerated: %d comparisons, %d horizons, %d within one base, %d DISTINCT", compared, horizons, within, distinct)
	}
}

// TestDebugStaleVersion: a retention runs after a query and before its
// Debug, and a mask request on the retained version rebases the family's
// clause-mask index past the result's base. The Debug of that result,
// and a DebugAdvance whose carried chain meets the same race, must
// answer bit for bit what the same passes answer over a fresh copy of
// the versions — a table family whose index never moved.
func TestDebugStaleVersion(t *testing.T) {
	full, carried := 0, 0
	for seed := int64(1); seed <= 40 && (full < 4 || carried < 2); seed++ {
		rng := rand.New(rand.NewSource(seed * 613))
		v := testgen.TableSeg(rng, 150+rng.Intn(150), engine.MinSegmentBits)
		batch := testgen.Batch(rng, 1+rng.Intn(60))
		stmt := debugStmt(rng, false)
		res, err := exec.Run(t.Context(), v, stmt)
		if err != nil {
			continue
		}
		suspect, examples, ok := drawRequest(rng, res)
		if !ok {
			continue
		}
		req := DebugRequest{
			Result: res, AggItem: -1, Suspect: suspect, Examples: examples,
			Metric: testgen.Metric(rng), Opt: Options{DriftThreshold: math.Inf(1)},
		}
		prev, err := Debug(req)
		if err != nil {
			continue
		}
		v2, err := v.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := exec.AdvanceCtx(t.Context(), res, v2)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d [%s]", seed, stmt)

		// The race: a retention drops one or two head segments — so the
		// index's re-sliced masks still hold some of res's rows, at other
		// row ids — and a request on the retained version rebases the
		// index.
		keep := v2.NumRows() - (1+rng.Intn(2))*v.SegRows()
		cur, stats, err := v2.RetainTail(engine.RetentionPolicy{MaxRows: keep})
		if err != nil || stats.DroppedRows == 0 || cur.Base() >= v.NumRows() {
			t.Fatalf("%s: the retention did not move the base into res's rows: %+v %v", label, stats, err)
		}
		predicate.Shared(cur).Mask(cur, predicate.NonNull(cur.Schema()[0].Name))

		got, err := Debug(req)
		if err != nil {
			t.Fatalf("%s: stale Debug: %v", label, err)
		}
		copyV := freshCopy(t, v)
		copyRes, err := exec.Run(t.Context(), copyV, stmt)
		if err != nil {
			t.Fatal(err)
		}
		copyReq := req
		copyReq.Result = copyRes
		want, err := Debug(copyReq)
		if err != nil {
			t.Fatalf("%s: fresh-copy Debug: %v", label, err)
		}
		identical(t, label+" stale Debug", want, got)
		identical(t, label+" before the race", prev, got)
		full++

		req.Result = adv
		gotAdv, gotErr := DebugAdvance(prev, req)
		copyV2, err := copyV.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if copyReq.Result, err = exec.AdvanceCtx(t.Context(), copyRes, copyV2); err != nil {
			t.Fatal(err)
		}
		wantAdv, wantErr := DebugAdvance(want, copyReq)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: stale DebugAdvance error %v, fresh copy's %v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		identical(t, label+" stale DebugAdvance", wantAdv, gotAdv)
		if gotAdv.Plan.Mode == "carried" {
			carried++
		}
	}
	if full < 4 || carried < 2 {
		t.Fatalf("harness degenerated: %d stale Debugs, %d carried", full, carried)
	}
}

// freshCopy is v's rows in a new table family of the same segment size.
func freshCopy(t *testing.T, v *engine.Table) *engine.Table {
	t.Helper()
	c, err := engine.NewTableSeg("p", v.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, v.NumRows())
	for r := range rows {
		rows[r] = v.Row(r)
	}
	if c, err = c.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return c
}

// identical asserts two passes answered alike to the last bit: mode, ε,
// F, D′, candidate count and every explanation with its scores (%v
// prints a float's shortest round-tripping form).
func identical(t *testing.T, label string, want, got *DebugResult) {
	t.Helper()
	render := func(d *DebugResult) string {
		s := fmt.Sprintf("%s %v F=%v D'=%v cands=%d", d.Plan.Mode, d.Eps, d.F, d.DPrime, d.Candidates)
		for _, e := range d.Explanations {
			s += fmt.Sprintf("\n%s %s %s %s %v %v %v %v %v %v %v %d %d", e.Pred, e.Origin, e.Provenance, e.Candidate,
				e.ErrImprovement, e.EpsAfter, e.Precision, e.Recall, e.F1, e.CulpableFrac, e.Score, e.Complexity, e.NumTuples)
		}
		return s
	}
	if w, g := render(want), render(got); w != g {
		t.Fatalf("%s:\n got %s\nwant %s", label, g, w)
	}
}
