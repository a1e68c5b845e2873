package ranker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// These tests pin RankerState.Rescore — the incremental ranking pass —
// to the from-scratch RankAllCarry mechanics it reuses: rescoring carried
// candidates on an unchanged context moves nothing (drift 0), rescoring
// them over an advanced (grown) context produces exactly what ranking
// the same candidate set against an independently built fresh context
// would, and a carried predicate whose match set dissolves registers as
// unbounded drift.

func mustParse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// rankerCtx builds a scoring context over res via the influence
// preprocessor (the same wiring core.Debug uses).
func rankerCtx(t *testing.T, res *exec.Result, suspect []int, metric errmetric.Metric) (*Context, *influence.Analysis) {
	t.Helper()
	an, err := influence.RankCtx(t.Context(), res, suspect, 0, metric)
	if err != nil {
		t.Fatalf("influence.RankCtx: %v", err)
	}
	ctx := &Context{
		Res: res, Suspect: suspect, Ord: 0, Metric: metric,
		F: an.F, Eps: an.Eps,
	}
	ctx.Scorer = an.Scorer
	return ctx, an
}

// randCands draws candidate predicates over the testgen schema with
// targets sampled from F.
func randCands(rng *rand.Rand, res *exec.Result, F []int, n int) []Candidate {
	ops := []predicate.Op{predicate.OpGe, predicate.OpLe, predicate.OpEq}
	strs := []string{"a", "b", "c", ""}
	var out []Candidate
	for k := 0; k < n; k++ {
		var p predicate.Predicate
		nclause := 1 + rng.Intn(2)
		for c := 0; c < nclause; c++ {
			switch rng.Intn(3) {
			case 0:
				p.Clauses = append(p.Clauses, predicate.Clause{
					Col: "f", Op: ops[rng.Intn(2)], Val: engine.NewFloat(float64(rng.Intn(48)-24) * 0.25)})
			case 1:
				p.Clauses = append(p.Clauses, predicate.Clause{
					Col: "i", Op: ops[rng.Intn(len(ops))], Val: engine.NewInt(int64(rng.Intn(9) - 4))})
			default:
				p.Clauses = append(p.Clauses, predicate.Clause{
					Col: "s", Op: predicate.OpEq, Val: engine.NewString(strs[rng.Intn(len(strs))])})
			}
		}
		target := bitset.New(res.Source.NumRows())
		for _, r := range F {
			if rng.Float64() < 0.4 {
				target.Set(r)
			}
		}
		out = append(out, Candidate{Pred: p, Origin: fmt.Sprintf("rand%d", k), Target: target})
	}
	return out
}

func scoredListsEqual(t *testing.T, label string, a, b []Scored) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d scored", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Pred.String() != y.Pred.String() {
			t.Fatalf("%s: rank %d pred %s vs %s", label, i, x.Pred, y.Pred)
		}
		if x.Score != y.Score || x.EpsAfter != y.EpsAfter || x.F1 != y.F1 ||
			x.NumTuples != y.NumTuples || x.CulpableFrac != y.CulpableFrac {
			t.Fatalf("%s: rank %d diverged:\n%+v\nvs\n%+v", label, i, x, y)
		}
	}
}

// TestRescoreStableContext: carrying a ranking onto the very context
// that produced it is a no-op — zero drift, identical scores.
func TestRescoreStableContext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := testgen.Table(rng, 200)
	for iter := 0; iter < 8; iter++ {
		stmt := testgen.DebugStmt(rng)
		res, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			continue
		}
		suspect := testgen.Suspects(rng, res)
		if len(suspect) == 0 {
			continue
		}
		metric := testgen.Metric(rng)
		an, err := influence.RankCtx(t.Context(), res, suspect, 0, metric)
		if err != nil || len(an.F) == 0 {
			continue
		}
		ctx := &Context{Res: res, Suspect: suspect, Ord: 0, Metric: metric,
			F: an.F, Eps: an.Eps}
		ctx.Scorer = an.Scorer
		scored, st, _ := RankAllCarry(randCands(rng, res, an.F, 6), ctx)
		if st.Len() == 0 {
			continue
		}
		re, st2, drift, _ := st.Rescore(ctx)
		if drift != 0 {
			t.Fatalf("iter %d: drift %v on unchanged context", iter, drift)
		}
		scoredListsEqual(t, fmt.Sprintf("iter %d", iter), scored, re)
		if st2.Len() != st.Len() {
			t.Fatalf("iter %d: state size changed %d → %d", iter, st.Len(), st2.Len())
		}
		for i := range re {
			if re[i].Provenance != "carried" {
				t.Fatalf("iter %d: provenance %q", iter, re[i].Provenance)
			}
		}
	}
}

// TestRescoreAdvancedContext: rescoring carried candidates over an
// advanced (grown) result must equal ranking the same predicates, with
// the same frozen targets, against an independently built from-scratch
// context over the grown table.
func TestRescoreAdvancedContext(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 3
	}
	sawDistinct := false
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		tbl := testgen.TableSeg(rng, 150+rng.Intn(100), engine.MinSegmentBits)
		for iter := 0; iter < 5; iter++ {
			stmt := testgen.DebugStmt(rng)
			res, err := exec.Run(t.Context(), tbl, stmt)
			if err != nil {
				continue
			}
			suspect := testgen.Suspects(rng, res)
			if len(suspect) == 0 {
				continue
			}
			metric := testgen.Metric(rng)
			an, err := influence.RankCtx(t.Context(), res, suspect, 0, metric)
			if err != nil {
				t.Fatalf("seed %d iter %d: Rank: %v [%s]", seed, iter, err, stmt)
			}
			if len(an.F) == 0 {
				continue
			}
			ctx := &Context{Res: res, Suspect: suspect, Ord: 0, Metric: metric,
				F: an.F, Eps: an.Eps}
			ctx.Scorer = an.Scorer
			cands := randCands(rng, res, an.F, 6)
			_, st, _ := RankAllCarry(cands, ctx)
			if st.Len() == 0 {
				continue
			}
			// DebugStmt's first aggregate is the debugged one: count(DISTINCT
			// s) among them carries and rescores like the rest.
			sawDistinct = sawDistinct || stmt.Items[len(stmt.GroupBy)].Agg.Distinct

			grown, err := tbl.AppendBatch(testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, tbl)))
			if err != nil {
				t.Fatal(err)
			}
			adv, err := exec.AdvanceCtx(t.Context(), res, grown)
			if err != nil {
				t.Fatalf("Advance: %v", err)
			}
			if !adv.Plan.Incremental || adv.Plan.Fallback != "" {
				t.Fatalf("seed %d iter %d: Advance re-ran: %+v [%s]", seed, iter, adv.Plan, stmt)
			}
			// The carried pass: the advanced result's scorer + carried
			// candidates.
			advAn, err := influence.RankCtx(context.Background(), adv, suspect, 0, metric)
			if err != nil {
				t.Fatalf("seed %d iter %d: RankCtx: %v [%s]", seed, iter, err, stmt)
			}
			carriedCtx := &Context{Res: adv, Suspect: suspect, Ord: 0, Metric: metric,
				F: advAn.F, Eps: advAn.Eps}
			carriedCtx.Scorer = advAn.Scorer
			got, _, _, _ := st.Rescore(carriedCtx)

			// The oracle: from-scratch result, scorer and candidates.
			fresh, err := exec.Run(t.Context(), grown, stmt)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			fan, err := influence.RankCtx(t.Context(), fresh, suspect, 0, metric)
			if err != nil {
				t.Fatalf("fresh rank: %v", err)
			}
			freshCtx := &Context{Res: fresh, Suspect: suspect, Ord: 0, Metric: metric,
				F: fan.F, Eps: fan.Eps}
			freshCtx.Scorer = fan.Scorer
			want, _, _ := RankAllCarry(st.candidates(), freshCtx)
			scoredListsEqual(t, fmt.Sprintf("seed %d iter %d [%s]", seed, iter, stmt.String()), want, got)
			tbl = grown
		}
	}
	if !sawDistinct {
		t.Fatal("harness coverage: no trial debugged count(DISTINCT s)")
	}
}

// TestRescoreVacuousDrift: a carried predicate whose matches dissolve
// under the new suspect selection registers as unbounded drift, so the
// caller abandons the carried ranking no matter the threshold.
func TestRescoreVacuousDrift(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString))
	var rows [][]engine.Value
	for i := 0; i < 40; i++ {
		k := int64(i % 2)
		memo, v := "", 10.0
		if k == 0 && i%4 == 0 { // anomaly only in group 0
			memo, v = "BAD", 100.0
		}
		rows = append(rows, []engine.Value{engine.NewInt(k), engine.NewFloat(v), engine.NewString(memo)})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(t.Context(), tbl, mustParse(t, "SELECT k, avg(v) AS a FROM t GROUP BY k"))
	if err != nil {
		t.Fatal(err)
	}
	metric := testgen.Metric(rand.New(rand.NewSource(1)))
	ctx0, _ := rankerCtx(t, res, []int{0}, metric)
	pred := predicate.Predicate{Clauses: []predicate.Clause{{Col: "memo", Op: predicate.OpEq, Val: engine.NewString("BAD")}}}
	target := badTarget(res)
	scored, st, _ := RankAllCarry([]Candidate{{Pred: pred, Origin: "test", Target: target}}, ctx0)
	if len(scored) != 1 || st.Len() != 1 {
		t.Fatalf("seed ranking: %d scored, %d carried", len(scored), st.Len())
	}
	// Same table, but suspecting group 1 — no BAD rows in its lineage:
	// the carried predicate is vacuous there.
	res2, err := exec.Run(t.Context(), tbl, mustParse(t, "SELECT k, avg(v) AS a FROM t GROUP BY k"))
	if err != nil {
		t.Fatal(err)
	}
	ctx1, _ := rankerCtx(t, res2, []int{1}, metric)
	_, _, drift, _ := st.Rescore(ctx1)
	if !math.IsInf(drift, 1) {
		t.Fatalf("vacuous carried predicate: drift %v, want +Inf", drift)
	}
}
