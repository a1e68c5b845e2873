package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// This file is the randomized differential harness for incremental
// Debug: random schemas, statements, suspect selections and append
// batches over 3–5-step chains, asserting at EVERY step that
// DebugAdvance — advanced exec result, advanced scorer, carried clause
// masks and argument views — produces exactly what a from-scratch
// Debug over an independently executed fresh result (at a forced shard
// count, so shard merging is in the loop) produces: ε, lineage,
// influence ranking, D', candidate counts, and the ranked explanations
// with their scores.
//
// Oracle mode pins the maintenance exactly: DriftThreshold < 0 forces
// the learners to re-run each step ("reexpanded"), so any divergence is
// a carried-structure bug, not a heuristic choice. The generator draws
// NULL-heavy, NaN and ±0.0 columns with exactly-representable floats
// (multiples of 0.25), so scores must agree to the last bit; the
// comparison still allows a vanishing tolerance per the advertised
// contract. Carried mode (DriftThreshold +Inf) is exercised separately
// for its structural guarantees.

// scoreTol is the advertised floating-point tolerance for score
// comparisons. With the exact-representable generator the observed
// difference is 0.
const scoreTol = 1e-9

func debugResultsEqual(t *testing.T, label string, want, got *DebugResult) {
	t.Helper()
	if want.Eps != got.Eps && !(math.IsNaN(want.Eps) && math.IsNaN(got.Eps)) {
		t.Fatalf("%s: eps %v vs %v", label, want.Eps, got.Eps)
	}
	if len(want.F) != len(got.F) {
		t.Fatalf("%s: |F| %d vs %d", label, len(want.F), len(got.F))
	}
	for i := range want.F {
		if want.F[i] != got.F[i] {
			t.Fatalf("%s: F[%d] %d vs %d", label, i, want.F[i], got.F[i])
		}
	}
	if len(want.DPrime) != len(got.DPrime) {
		t.Fatalf("%s: |D'| %d vs %d", label, len(want.DPrime), len(got.DPrime))
	}
	for i := range want.DPrime {
		if want.DPrime[i] != got.DPrime[i] {
			t.Fatalf("%s: D'[%d] %d vs %d", label, i, want.DPrime[i], got.DPrime[i])
		}
	}
	if want.Candidates != got.Candidates {
		t.Fatalf("%s: candidates %d vs %d", label, want.Candidates, got.Candidates)
	}
	wi, gi := want.Influence.Influences, got.Influence.Influences
	if len(wi) != len(gi) {
		t.Fatalf("%s: influence entries %d vs %d", label, len(wi), len(gi))
	}
	for i := range wi {
		if wi[i].Row != gi[i].Row || wi[i].GroupRow != gi[i].GroupRow ||
			(wi[i].Delta != gi[i].Delta && !(math.IsNaN(wi[i].Delta) && math.IsNaN(gi[i].Delta))) {
			t.Fatalf("%s: influence[%d] %+v vs %+v", label, i, wi[i], gi[i])
		}
	}
	if len(want.Explanations) != len(got.Explanations) {
		t.Fatalf("%s: %d vs %d explanations:\nwant %v\ngot  %v",
			label, len(want.Explanations), len(got.Explanations), want.Explanations, got.Explanations)
	}
	for i := range want.Explanations {
		we, ge := want.Explanations[i], got.Explanations[i]
		if we.Pred.Key() != ge.Pred.Key() {
			t.Fatalf("%s: explanation %d pred %s vs %s", label, i, we.Pred, ge.Pred)
		}
		if math.Abs(we.Score-ge.Score) > scoreTol ||
			math.Abs(we.EpsAfter-ge.EpsAfter) > scoreTol ||
			math.Abs(we.F1-ge.F1) > scoreTol {
			t.Fatalf("%s: explanation %d scores diverged:\n%+v\nvs\n%+v", label, i, we.Scored, ge.Scored)
		}
		if we.NumTuples != ge.NumTuples || we.Complexity != ge.Complexity || we.Origin != ge.Origin {
			t.Fatalf("%s: explanation %d lineage/shape diverged:\n%+v\nvs\n%+v", label, i, we.Scored, ge.Scored)
		}
	}
}

// chainStep holds one step's shared request inputs, drawn once so the
// oracle and the incremental pass debug the same question.
func drawRequest(rng *rand.Rand, res *exec.Result) (suspect, examples []int, ok bool) {
	suspect = testgen.Suspects(rng, res)
	if len(suspect) == 0 {
		return nil, nil, false
	}
	if rng.Float64() < 0.3 {
		// User-highlighted examples: a slice of the suspect lineage,
		// which exercises the cleaning stage on both sides.
		F := res.Lineage(suspect)
		for _, r := range F {
			if rng.Float64() < 0.3 {
				examples = append(examples, r)
			}
		}
	}
	return suspect, examples, true
}

// debugStmt draws a DebugStmt; with distinct set it redraws until the
// debugged (first) aggregate is count(DISTINCT s), which the harnesses
// below do on each seed's first chain so the shape is always among their
// trials.
func debugStmt(rng *rand.Rand, distinct bool) *sqlparse.SelectStmt {
	for {
		if stmt := testgen.DebugStmt(rng); !distinct || stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
			return stmt
		}
	}
}

func TestDebugAdvanceDifferential(t *testing.T) {
	seeds := int64(5)
	iters := 3
	if testing.Short() {
		seeds = 4
	}
	compared, advanced, distinct := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 313))
		tbl := testgen.TableSeg(rng, 100+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < iters; iter++ {
			stmt := debugStmt(rng, iter == 0)
			advRes, err := exec.RunOn(tbl, stmt)
			if err != nil {
				continue
			}
			metric := testgen.Metric(rng)
			opt := Options{DriftThreshold: -1} // oracle mode: always re-expand
			var prev *DebugResult
			steps := 3 + rng.Intn(3)
			cur := tbl
			for step := 0; step < steps; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, testgen.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				advRes, err = exec.Advance(advRes, grown)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				if !advRes.Plan.Incremental || advRes.Plan.Fallback != "" {
					t.Fatalf("seed %d iter %d step %d: Advance re-ran: %+v [%s]", seed, iter, step, advRes.Plan, stmt)
				}
				// Fresh oracle at a forced shard count: shard-merged
				// aggregate states feed the from-scratch Debug.
				fresh, err := exec.RunOnWithCtx(context.Background(), grown, stmt, exec.Options{Shards: 4})
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v", seed, iter, step, err)
				}
				suspect, examples, ok := drawRequest(rng, fresh)
				if !ok {
					cur = grown
					continue
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, stmt.String())

				want, wantErr := Debug(DebugRequest{
					Result: fresh, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				})
				got, gotErr := DebugAdvance(prev, DebugRequest{
					Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				})
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s: error disagreement:\nfresh: %v\nincremental: %v", label, wantErr, gotErr)
				}
				if wantErr != nil {
					prev = nil
					cur = grown
					continue
				}
				debugResultsEqual(t, label, want, got)
				compared++
				if prev != nil {
					// With carried state present, oracle mode must have
					// taken the incremental re-expansion path, not a
					// silent fallback — whatever the debugged aggregate.
					if !got.Plan.Incremental {
						t.Fatalf("%s: advance fell back: %+v", label, got.Plan)
					}
					if got.Plan.Mode != "reexpanded" {
						t.Fatalf("%s: oracle mode ran %q", label, got.Plan.Mode)
					}
					advanced++
					if stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
						distinct++
					}
				}
				prev = got
				cur = grown
			}
			tbl = cur
		}
	}
	// Degeneracy guard: the harness must actually compare results, and
	// a healthy share of the comparisons must have exercised the
	// incremental path (not the nil-prev full fallback).
	t.Logf("compared %d steps, %d via the incremental path, %d of those debugging count(DISTINCT s)", compared, advanced, distinct)
	minCompared, minAdvanced := 15, 8
	if testing.Short() {
		minCompared, minAdvanced = 4, 2
	}
	if compared < minCompared || advanced < minAdvanced || distinct == 0 {
		t.Fatalf("harness degenerated: %d comparisons (%d incremental, %d DISTINCT)", compared, advanced, distinct)
	}
}

// TestDebugAdvanceCarried pins the carried mode's structural
// guarantees on a stable stream — the SAME suspect groups and examples
// debugged across batches (a changed selection forces re-expansion by
// design): the preprocessing (ε, lineage, influence) still matches the
// from-scratch oracle exactly, the pass reports itself as carried with
// zero fresh candidates, and the carried predicates are rescored —
// scores reflect the grown table.
func TestDebugAdvanceCarried(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tbl := testgen.Table(rng, 250)
	var prev *DebugResult
	var stmt = testgen.DebugStmt(rng)
	advRes, err := exec.RunOn(tbl, stmt)
	metric := testgen.Metric(rng)
	opt := Options{DriftThreshold: math.Inf(1)} // always carry once seeded
	// The fixed question: drawn once (DebugStmt emits no HAVING/ORDER
	// BY/LIMIT, so output row indexes are append-stable).
	var suspect, examples []int
	carried := 0
	for attempt := 0; attempt < 20 && carried < 3; attempt++ {
		if err != nil {
			stmt = testgen.DebugStmt(rng)
			advRes, err = exec.RunOn(tbl, stmt)
			suspect = nil
			continue
		}
		if suspect == nil {
			var ok bool
			suspect, examples, ok = drawRequest(rng, advRes)
			if !ok {
				err = fmt.Errorf("no suspects")
				continue
			}
		}
		grown, aerr := tbl.AppendBatch(testgen.Batch(rng, 1+rng.Intn(30)))
		if aerr != nil {
			t.Fatal(aerr)
		}
		advRes, err = exec.Advance(advRes, grown)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
		tbl = grown
		fresh, ferr := exec.RunOn(grown, stmt)
		if ferr != nil {
			t.Fatal(ferr)
		}
		got, gerr := DebugAdvance(prev, DebugRequest{
			Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
			Metric: metric, Opt: opt,
		})
		if gerr != nil {
			prev = nil
			continue
		}
		if prev != nil && prev.state != nil && prev.state.scorer != nil && prev.state.rstate.Len() > 0 {
			if got.Plan.Mode != "carried" || !got.Plan.Incremental {
				t.Fatalf("attempt %d: plan %+v, want carried", attempt, got.Plan)
			}
			if got.Plan.Fresh != 0 {
				t.Fatalf("attempt %d: carried pass reports %d fresh candidates", attempt, got.Plan.Fresh)
			}
			if got.Plan.Carried != len(got.Explanations) && got.Plan.Carried < len(got.Explanations) {
				t.Fatalf("attempt %d: carried count %d < %d explanations", attempt, got.Plan.Carried, len(got.Explanations))
			}
			for i, e := range got.Explanations {
				if e.Provenance != "carried" {
					t.Fatalf("attempt %d: explanation %d provenance %q", attempt, i, e.Provenance)
				}
			}
			// Preprocessing must still match the oracle exactly.
			want, werr := Debug(DebugRequest{
				Result: fresh, AggItem: -1, Suspect: suspect, Examples: examples,
				Metric: metric, Opt: opt,
			})
			if werr != nil {
				t.Fatalf("attempt %d: oracle errored (%v) where carried pass succeeded", attempt, werr)
			}
			if want.Eps != got.Eps && !(math.IsNaN(want.Eps) && math.IsNaN(got.Eps)) {
				t.Fatalf("attempt %d: eps %v vs %v", attempt, want.Eps, got.Eps)
			}
			if len(want.F) != len(got.F) {
				t.Fatalf("attempt %d: |F| %d vs %d", attempt, len(want.F), len(got.F))
			}
			for i := range want.F {
				if want.F[i] != got.F[i] {
					t.Fatalf("attempt %d: F[%d] differs", attempt, i)
				}
			}
			carried++
		}
		prev = got
	}
	if carried == 0 {
		t.Fatal("harness never reached a carried pass")
	}
}

// TestDebugAdvanceChangedSelectionReexpands: carried candidates were
// learned for one suspect/example selection; debugging a different
// selection must re-run the learners even when the carried predicates'
// scores barely move — rescoring alone could silently omit
// selection-specific predicates.
func TestDebugAdvanceChangedSelectionReexpands(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	opt := Options{DriftThreshold: math.Inf(1)} // carry would always win on drift alone
	for attempt := 0; attempt < 30; attempt++ {
		tbl := testgen.Table(rng, 200+rng.Intn(100))
		stmt := testgen.DebugStmt(rng)
		res, err := exec.RunOn(tbl, stmt)
		if err != nil || res.NumRows() < 2 {
			continue
		}
		metric := testgen.Metric(rng)
		suspectA, examples, ok := drawRequest(rng, res)
		if !ok {
			continue
		}
		prev, err := Debug(DebugRequest{Result: res, AggItem: -1, Suspect: suspectA, Examples: examples, Metric: metric, Opt: opt})
		if err != nil || prev.state == nil || prev.state.scorer == nil || prev.state.rstate.Len() == 0 {
			continue
		}
		grown, err := tbl.AppendBatch(testgen.Batch(rng, 10))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := exec.Advance(res, grown)
		if err != nil {
			t.Fatal(err)
		}
		// A different suspect selection over the same statement.
		suspectB := []int{(suspectA[0] + 1) % adv.NumRows()}
		if rowsKey(suspectB) == rowsKey(suspectA) {
			continue
		}
		got, err := DebugAdvance(prev, DebugRequest{Result: adv, AggItem: -1, Suspect: suspectB, Examples: examples, Metric: metric, Opt: opt})
		if err != nil {
			continue // e.g. the new selection has empty lineage — fine
		}
		if got.Plan.Mode == "carried" {
			t.Fatalf("attempt %d: changed suspect selection was served a carried ranking: %+v", attempt, got.Plan)
		}
		if !got.Plan.Incremental {
			t.Fatalf("attempt %d: changed selection should still advance (re-expand), got %+v", attempt, got.Plan)
		}
		return
	}
	t.Fatal("never reached the changed-selection scenario")
}

// TestDebugDeterminism guards the harness's foundation: the pipeline
// run twice over identical inputs is identical (the learner stages are
// seeded and collected deterministically). A flake here means the
// differential assertions above are meaningless.
func TestDebugDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := testgen.Table(rng, 220)
	for iter := 0; iter < 6; iter++ {
		stmt := testgen.DebugStmt(rng)
		res1, err := exec.RunOn(tbl, stmt)
		if err != nil {
			continue
		}
		res2, err := exec.RunOn(tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		metric := testgen.Metric(rng)
		suspect, examples, ok := drawRequest(rng, res1)
		if !ok {
			continue
		}
		req := func(r *exec.Result) DebugRequest {
			return DebugRequest{Result: r, AggItem: -1, Suspect: suspect, Examples: examples, Metric: metric}
		}
		a, errA := Debug(req(res1))
		b, errB := Debug(req(res2))
		if (errA != nil) != (errB != nil) {
			t.Fatalf("iter %d: error disagreement %v vs %v", iter, errA, errB)
		}
		if errA != nil {
			continue
		}
		debugResultsEqual(t, fmt.Sprintf("iter %d determinism [%s]", iter, stmt.String()), a, b)
	}
}

// TestDebugAdvanceFallbacks pins the fallback conditions: each
// incompatibility runs the full pipeline and says why.
func TestDebugAdvanceFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := testgen.Table(rng, 200)
	var res *exec.Result
	var stmt = testgen.DebugStmt(rng)
	var err error
	for {
		res, err = exec.RunOn(tbl, stmt)
		if err == nil && res.NumRows() > 0 {
			break
		}
		stmt = testgen.DebugStmt(rng)
	}
	metric := testgen.Metric(rng)
	var prev *DebugResult
	for attempt := 0; attempt < 30 && prev == nil; attempt++ {
		suspect, examples, ok := drawRequest(rng, res)
		if !ok {
			t.Fatal("no suspects")
		}
		prev, _ = Debug(DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Examples: examples, Metric: metric})
	}
	if prev == nil {
		t.Skip("could not seed a Debug result on this statement")
	}
	suspect, _, _ := drawRequest(rng, res)

	// nil prev → full, no fallback reason (it wasn't an advance).
	dr, err := DebugAdvance(nil, DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: metric})
	if err == nil {
		if dr.Plan.Mode != "full" || dr.Plan.Fallback != "no carried analysis" {
			t.Fatalf("nil prev plan: %+v", dr.Plan)
		}
	}

	// Changed statement → fallback.
	stmt2 := testgen.DebugStmt(rng)
	for stmt2.String() == stmt.String() {
		stmt2 = testgen.DebugStmt(rng)
	}
	res2, err := exec.RunOn(tbl, stmt2)
	if err == nil {
		if s2, _, ok := drawRequest(rng, res2); ok {
			dr, err = DebugAdvance(prev, DebugRequest{Result: res2, AggItem: -1, Suspect: s2, Metric: metric})
			if err == nil && (dr.Plan.Mode != "full" || dr.Plan.Fallback != "statement changed") {
				t.Fatalf("changed statement plan: %+v", dr.Plan)
			}
		}
	}

	// Changed metric → fallback.
	m2 := testgen.Metric(rng)
	for metricKey(m2) == metricKey(metric) {
		m2 = testgen.Metric(rng)
	}
	dr, err = DebugAdvance(prev, DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: m2})
	if err == nil && (dr.Plan.Mode != "full" || dr.Plan.Fallback != "error metric changed") {
		t.Fatalf("changed metric plan: %+v", dr.Plan)
	}

	// Unrelated table → fallback.
	other := testgen.Table(rng, 100)
	resOther, err := exec.RunOn(other, stmt)
	if err == nil {
		if s3, _, ok := drawRequest(rng, resOther); ok {
			dr, err = DebugAdvance(prev, DebugRequest{Result: resOther, AggItem: -1, Suspect: s3, Metric: metric})
			if err == nil && (dr.Plan.Mode != "full" || dr.Plan.Fallback != "source table changed") {
				t.Fatalf("changed table plan: %+v", dr.Plan)
			}
		}
	}
}
