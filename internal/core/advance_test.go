package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// This file is the randomized differential harness for incremental
// Debug: random schemas, statements, suspect selections and append
// batches over 3–5-step chains, asserting at EVERY step that
// DebugAdvance — advanced exec result, advanced scorer, the family's
// clause masks and carried argument views — answers what the same pass
// computes from scratch over an independently executed fresh result
// (over 64-row fold blocks, so the block fold is in the loop). A full pass must equal
// Debug's: ε, lineage, influence ranking, D', candidate counts, and the
// ranked explanations with their scores. A carried pass must equal
// Debug's ε, lineage, influences and D', and its ranking must be the
// carried candidates rescored against the fresh result (rescoreOracle;
// ranker's advance tests pin Rescore itself).
//
// The harnesses run with DriftThreshold +Inf, so a carried pass is never
// abandoned for drift and any divergence is a carried-structure bug, not
// a heuristic choice. The generator draws NULL-heavy, NaN and ±0.0
// columns with exactly-representable floats (multiples of 0.25), so
// scores must agree to the last bit; the comparison still allows a
// vanishing tolerance per the advertised contract.

// scoreTol is the advertised floating-point tolerance for score
// comparisons. With the exact-representable generator the observed
// difference is 0.
const scoreTol = 1e-9

// analysisEqual compares what the preprocessor and example cleaning
// produced: ε, F, D' and the influence ranking.
func analysisEqual(t *testing.T, label string, want, got *DebugResult) {
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
}

// debugResultsEqual compares two passes entirely: the analysis, the
// candidate count and the ranked explanations with their scores.
func debugResultsEqual(t *testing.T, label string, want, got *DebugResult) {
	t.Helper()
	analysisEqual(t, label, want, got)
	if want.Candidates != got.Candidates {
		t.Fatalf("%s: candidates %d vs %d", label, want.Candidates, got.Candidates)
	}
	if len(want.Explanations) != len(got.Explanations) {
		t.Fatalf("%s: %d vs %d explanations:\nwant %v\ngot  %v",
			label, len(want.Explanations), len(got.Explanations), want.Explanations, got.Explanations)
	}
	for i := range want.Explanations {
		we, ge := want.Explanations[i], got.Explanations[i]
		if we.Pred.String() != ge.Pred.String() {
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

// rescoreOracle is what a carried pass over req must answer, computed
// from scratch: Debug's own preprocessing and example cleaning over req's
// result, then prev's carried candidates rescored through a fresh
// scorer.
func rescoreOracle(t *testing.T, prev *DebugResult, req DebugRequest) *DebugResult {
	t.Helper()
	opt := req.Opt
	opt.defaults()
	ord, err := resolveDebug(req)
	if err != nil {
		t.Fatal(err)
	}
	an, err := influence.RankCtx(context.Background(), req.Result, req.Suspect, ord, req.Metric)
	if err != nil {
		t.Fatal(err)
	}
	out := &DebugResult{Timings: make(map[string]time.Duration)}
	d := &debugRun{req: req, opt: opt, ord: ord, out: out}
	if err := d.preprocess(an); err != nil {
		t.Fatal(err)
	}
	if len(req.Examples) > 0 {
		if err := d.featurize(); err != nil {
			t.Fatal(err)
		}
	}
	d.cleanExamples()
	scored, rstate, _, err := prev.state.rstate.Rescore(d.context())
	if err != nil {
		t.Fatal(err)
	}
	d.finish(scored, rstate, obs.Span{})
	return out
}

// advanceStep runs DebugAdvance(prev, req) and checks it against the
// oracles over fresh, an independently executed result of req.Result's
// table version: a full pass equals Debug entirely, a carried pass
// equals Debug's analysis and rescoreOracle's ranking. Errors must agree
// with Debug's; the pass is nil when both errored.
func advanceStep(t *testing.T, label string, prev *DebugResult, req DebugRequest, fresh *exec.Result) *DebugResult {
	t.Helper()
	freshReq := req
	freshReq.Result = fresh
	want, wantErr := Debug(freshReq)
	got, gotErr := DebugAdvance(prev, req)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: error disagreement:\nfresh: %v\nincremental: %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil
	}
	switch got.Plan.Mode {
	case "full":
		debugResultsEqual(t, label, want, got)
	case "carried":
		analysisEqual(t, label, want, got)
		debugResultsEqual(t, label+" (rescored)", rescoreOracle(t, prev, freshReq), got)
	default:
		t.Fatalf("%s: mode %q", label, got.Plan.Mode)
	}
	return got
}

// carries reports whether prev holds a carried ranking for exactly the
// question req asks — the one case DebugAdvance must carry.
func carries(prev *DebugResult, req DebugRequest) bool {
	return prev != nil && prev.state.rstate.Len() > 0 &&
		prev.state.suspectKey == suspectKeyOf(req.Result, req.Suspect) &&
		prev.state.examplesKey == rowsKey(req.Examples)
}

// drawRequest draws one question — suspect groups and, sometimes, user
// examples from their lineage — for the oracle and the incremental pass
// to debug alike.
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
	compared, carried, reasked, distinct := 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 313))
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
			steps := 3 + rng.Intn(3)
			cur := tbl
			for step := 0; step < steps; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				advRes, err = exec.AdvanceCtx(t.Context(), advRes, grown)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				if !advRes.Plan.Incremental || advRes.Plan.Fallback != "" {
					t.Fatalf("seed %d iter %d step %d: Advance re-ran: %+v [%s]", seed, iter, step, advRes.Plan, stmt)
				}
				// Fresh oracle: block-folded aggregate states feed the
				// from-scratch Debug.
				fresh, err := exec.Run(t.Context(), grown, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v", seed, iter, step, err)
				}
				// The question stands across the chain, as in a monitoring
				// session; now and then the user asks a new one.
				if suspect == nil || rng.Float64() < 0.2 {
					var ok bool
					if suspect, examples, ok = drawRequest(rng, fresh); !ok {
						continue
					}
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, stmt.String())
				req := DebugRequest{
					Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				}
				same := carries(prev, req)
				got := advanceStep(t, label, prev, req, fresh)
				if got == nil {
					prev, suspect = nil, nil
					continue
				}
				compared++
				switch {
				case same && (got.Plan.Mode != "carried" || got.Plan.Fallback != ""):
					t.Fatalf("%s: the same question was not carried: %+v", label, got.Plan)
				case same:
					carried++
					if stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
						distinct++
					}
				case prev != nil && (got.Plan.Mode != "full" || !strings.HasSuffix(got.Plan.Fallback, "selection changed")):
					t.Fatalf("%s: a new question was not a full Debug: %+v", label, got.Plan)
				case prev != nil:
					reasked++
				}
				prev = got
			}
			tbl = cur
		}
	}
	// Degeneracy guard: the harness must actually compare results, and
	// a healthy share of the comparisons must have exercised the carried
	// pass (not the nil-prev full fallback).
	t.Logf("compared %d steps: %d carried (%d debugging count(DISTINCT s)), %d full on a new question", compared, carried, distinct, reasked)
	minCompared, minCarried := 15, 8
	if testing.Short() {
		minCompared, minCarried = 4, 2
	}
	if compared < minCompared || carried < minCarried || distinct == 0 || reasked == 0 {
		t.Fatalf("harness degenerated: %d comparisons (%d carried, %d DISTINCT, %d new questions)", compared, carried, distinct, reasked)
	}
}

// freshGroupBatch draws k rows whose s, i and j no generator has drawn
// before (tag makes them unique): under every DebugStmt grouping they
// found new groups, so the table grows and no existing group's lineage
// does — how a monitored stream usually grows.
func freshGroupBatch(rng *rand.Rand, k, tag int) [][]engine.Value {
	rows := testgen.Batch(rng, k)
	for _, r := range rows {
		r[0] = engine.NewInt(int64(1000 + 3*tag)) // its own bucket(i, 3) too
		r[1] = engine.NewInt(int64(100 + tag))
		r[3] = engine.NewString(fmt.Sprintf("fresh%d", tag))
	}
	return rows
}

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

// TestDebugAdvanceCarried pins the carried mode on a stable stream — the
// SAME suspect groups and examples debugged across batches (a changed
// selection runs a full Debug by design). The pass reports itself as
// carried with rescored predicates, and it is exact: ε, lineage, every
// influence and the cleaned D' equal a from-scratch Debug's over the
// grown table, on both arms of the preprocessor — batches that grow a
// suspect group (the LOO pass runs again) and batches that only add
// groups (the previous pass's ranking is shared, not recomputed). Its
// last part is drift past the threshold: the carry is attempted,
// abandoned, and the answer is a full Debug's, with the drift and the
// reason recorded.
func TestDebugAdvanceCarried(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	opt := Options{DriftThreshold: math.Inf(1)} // always carry once seeded
	// The fixed question: drawn once (DebugStmt emits no HAVING/ORDER
	// BY/LIMIT, so output row indexes are append-stable).
	tbl, advRes, req, prev := carriedFixture(t, rng, opt)
	shared, recomputed := 0, 0
	for step := 0; step < 12; step++ {
		batch := testgen.Batch(rng, 1+rng.Intn(30))
		if step%2 == 1 {
			batch = freshGroupBatch(rng, 1+rng.Intn(30), step)
		}
		grown, err := tbl.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		grew := false
		before := advRes
		if advRes, err = exec.AdvanceCtx(t.Context(), advRes, grown); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		for _, ri := range req.Suspect {
			grew = grew || advRes.Groups[ri].Rows != before.Groups[ri].Rows
		}
		tbl = grown
		fresh, err := exec.Run(t.Context(), grown, advRes.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		req.Result = advRes
		got, err := DebugAdvance(prev, req)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got.Plan.Mode != "carried" || got.Plan.Fallback != "" {
			t.Fatalf("step %d: plan %+v, want carried", step, got.Plan)
		}
		for i, e := range got.Explanations {
			if e.Provenance != "carried" {
				t.Fatalf("step %d: explanation %d provenance %q", step, i, e.Provenance)
			}
		}
		// Everything but the ranking itself must match the oracle exactly.
		oracleReq := req
		oracleReq.Result = fresh
		want, err := Debug(oracleReq)
		if err != nil {
			t.Fatalf("step %d: oracle errored (%v) where carried pass succeeded", step, err)
		}
		analysisEqual(t, fmt.Sprintf("step %d (grew %v)", step, grew), want, got)

		sameArray := &got.Influence.Influences[0] == &prev.Influence.Influences[0]
		switch {
		case grew && sameArray:
			t.Fatalf("step %d: a suspect group grew and the previous influence ranking was kept", step)
		case grew:
			recomputed++
		case !sameArray:
			t.Fatalf("step %d: no suspect group grew and the influence ranking was recomputed", step)
		default:
			shared++
		}
		prev = got
	}
	if shared == 0 || recomputed == 0 {
		t.Fatalf("harness degenerated: %d passes shared the ranking, %d recomputed it", shared, recomputed)
	}

	// Drift past a small positive threshold, with examples: the carry is
	// attempted (profile-only space, D' cleaned on it, candidates
	// rescored), abandoned, and a full Debug answers. The request's
	// stage record counts both: a drifted pass preprocesses and ranks
	// twice, a carried one once.
	opt = Options{DriftThreshold: 1e-12}
	drifted := 0
	for attempt := 0; attempt < 10 && drifted < 2; attempt++ {
		tbl, advRes, req, prev := carriedFixture(t, rng, opt)
		for step := 0; step < 4; step++ {
			grown, err := tbl.AppendBatch(testgen.Batch(rng, 20+rng.Intn(30)))
			if err != nil {
				t.Fatal(err)
			}
			if advRes, err = exec.AdvanceCtx(t.Context(), advRes, grown); err != nil {
				t.Fatalf("Advance: %v", err)
			}
			tbl = grown
			fresh, err := exec.Run(t.Context(), grown, advRes.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			req.Result = advRes
			rec := new(obs.Record)
			req.Ctx = obs.With(context.Background(), rec)
			got, gerr := DebugAdvance(prev, req)
			oracleReq := req
			oracleReq.Ctx = nil
			oracleReq.Result = fresh
			want, werr := Debug(oracleReq)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("attempt %d step %d: error disagreement: %v vs the oracle's %v", attempt, step, gerr, werr)
			}
			if gerr != nil {
				break
			}
			if got.Plan.Mode == "full" {
				if got.Plan.Drift <= opt.DriftThreshold || !strings.HasPrefix(got.Plan.Fallback, "drift ") {
					t.Fatalf("attempt %d step %d: full Debug without a rescore drifting: %+v", attempt, step, got.Plan)
				}
				debugResultsEqual(t, fmt.Sprintf("attempt %d step %d drifted", attempt, step), want, got)
				drifted++
			}
			passes := map[string]int64{"full": 2, "carried": 1}[got.Plan.Mode]
			for _, st := range []obs.Stage{obs.Preprocess, obs.Rank} {
				if rec.Count(st) != passes {
					t.Fatalf("attempt %d step %d (%s): stage %d entered %d times, want %d",
						attempt, step, got.Plan.Mode, st, rec.Count(st), passes)
				}
			}
			if got.Timings["preprocess"] <= 0 || got.Timings["rank"] <= 0 {
				t.Fatalf("attempt %d step %d: Timings %v", attempt, step, got.Timings)
			}
			prev = got
		}
	}
	if drifted == 0 {
		t.Fatal("no carried pass with examples ever drifted past the threshold")
	}
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

// TestDebugAdvanceChangedSelectionRunsFull: carried candidates were
// learned for one suspect/example selection; debugging a different
// selection must run a full Debug even when the carried predicates'
// scores would barely move — rescoring alone could silently omit
// selection-specific predicates.
func TestDebugAdvanceChangedSelectionRunsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	opt := Options{DriftThreshold: math.Inf(1)} // carry would always win on drift alone
	for attempt := 0; attempt < 30; attempt++ {
		tbl := testgen.Table(rng, 200+rng.Intn(100))
		stmt := testgen.DebugStmt(rng)
		res, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil || res.NumRows() < 2 {
			continue
		}
		metric := testgen.Metric(rng)
		suspectA, examples, ok := drawRequest(rng, res)
		if !ok {
			continue
		}
		prev, err := Debug(DebugRequest{Result: res, AggItem: -1, Suspect: suspectA, Examples: examples, Metric: metric, Opt: opt})
		if err != nil || prev.state == nil || prev.state.an == nil || prev.state.rstate.Len() == 0 {
			continue
		}
		grown, err := tbl.AppendBatch(testgen.Batch(rng, 10))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := exec.AdvanceCtx(t.Context(), res, grown)
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
		if got.Plan.Mode != "full" || got.Plan.Fallback != "suspect selection changed" {
			t.Fatalf("attempt %d: changed suspect selection was not a full Debug: %+v", attempt, got.Plan)
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
		res1, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			continue
		}
		res2, err := exec.Run(t.Context(), tbl, stmt)
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
		res, err = exec.Run(t.Context(), tbl, stmt)
		if err == nil && res.NumRows() > 0 {
			break
		}
		stmt = testgen.DebugStmt(rng)
	}
	metric := testgen.Metric(rng)
	var prev *DebugResult
	var asked DebugRequest
	for attempt := 0; attempt < 30 && prev == nil; attempt++ {
		suspect, examples, ok := drawRequest(rng, res)
		if !ok {
			t.Fatal("no suspects")
		}
		asked = DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Examples: examples, Metric: metric}
		prev, _ = Debug(asked)
	}
	if prev == nil {
		t.Skip("could not seed a Debug result on this statement")
	}

	// The same question under other Options, or under a threshold that
	// never carries → full before any work starts.
	again := asked
	again.Opt.DisablePrune = true
	if dr, err := DebugAdvance(prev, again); err != nil || dr.Plan.Mode != "full" || dr.Plan.Fallback != "options changed" {
		t.Fatalf("changed options: %v, %+v", err, dr.Plan)
	}
	again.Opt = Options{DriftThreshold: -1}
	never, err := Debug(again)
	if err != nil {
		t.Fatal(err)
	}
	if dr, err := DebugAdvance(never, again); err != nil || dr.Plan.Mode != "full" || dr.Plan.Fallback != "negative drift threshold: never carry" {
		t.Fatalf("negative threshold: %v, %+v", err, dr.Plan)
	}
	// An out-of-range suspect is an error, not a fingerprint.
	again = asked
	again.Suspect = []int{res.NumRows()}
	if _, err := DebugAdvance(prev, again); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range suspect: %v", err)
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
	res2, err := exec.Run(t.Context(), tbl, stmt2)
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
	resOther, err := exec.Run(t.Context(), other, stmt)
	if err == nil {
		if s3, _, ok := drawRequest(rng, resOther); ok {
			dr, err = DebugAdvance(prev, DebugRequest{Result: resOther, AggItem: -1, Suspect: s3, Metric: metric})
			if err == nil && (dr.Plan.Mode != "full" || dr.Plan.Fallback != "source table changed") {
				t.Fatalf("changed table plan: %+v", dr.Plan)
			}
		}
	}
}
