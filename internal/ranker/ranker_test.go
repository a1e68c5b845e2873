package ranker

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/predicate"
)

// fixture: one group with a planted anomaly (memo='BAD' rows are large).
func fixture(t *testing.T) (*exec.Result, *Context) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString, "site", engine.TInt))
	for i := 0; i < 40; i++ {
		memo, v := "", 10.0
		site := int64(i % 4)
		if i%4 == 3 { // 10 rows: the anomaly, all at site 3
			memo, v = "BAD", 100.0
		}
		tbl.MustAppendRow(engine.NewInt(0), engine.NewFloat(v), engine.NewString(memo), engine.NewInt(site))
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, avg(v) AS a FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	F := res.Lineage([]int{0})
	culpable := bitset.New(tbl.NumRows())
	for _, r := range F {
		if tbl.Value(r, 2).Str() == "BAD" {
			culpable.Set(r)
		}
	}
	metric := errmetric.TooHigh{C: 15}
	eps := metric.Eval([]float64{32.5}) // avg = (30*10+10*100)/40 = 32.5
	ctx := &Context{
		Res: res, Suspect: []int{0}, Ord: 0,
		Metric: metric, F: F, Eps: eps, Culpable: culpable,
	}
	return res, ctx
}

func badTarget(res *exec.Result) *bitset.Bitset {
	target := bitset.New(res.Source.NumRows())
	for _, r := range res.Lineage([]int{0}) {
		if res.Source.Value(r, 2).Str() == "BAD" {
			target.Set(r)
		}
	}
	return target
}

func memoPred() predicate.Predicate {
	return predicate.New(predicate.Clause{Col: "memo", Op: predicate.OpEq, Val: engine.NewString("BAD")})
}

func TestScoreGoodPredicate(t *testing.T) {
	res, ctx := fixture(t)
	sc, ok := Score(Candidate{Pred: memoPred(), Origin: "test", Target: badTarget(res)}, ctx)
	if !ok {
		t.Fatal("good predicate rejected")
	}
	if sc.ErrImprovement < 0.99 {
		t.Errorf("errImprovement %.2f", sc.ErrImprovement)
	}
	if sc.F1 < 0.99 || sc.Precision < 0.99 || sc.Recall < 0.99 {
		t.Errorf("accuracy: P=%.2f R=%.2f F1=%.2f", sc.Precision, sc.Recall, sc.F1)
	}
	if sc.NumTuples != 10 {
		t.Errorf("tuples: %d", sc.NumTuples)
	}
	if sc.CulpableFrac != 1 {
		t.Errorf("culpable frac: %v", sc.CulpableFrac)
	}
}

func TestScoreRejectsVacuousAndTautological(t *testing.T) {
	res, ctx := fixture(t)
	empty := predicate.New(predicate.Clause{Col: "memo", Op: predicate.OpEq, Val: engine.NewString("NOPE")})
	if _, ok := Score(Candidate{Pred: empty, Target: badTarget(res)}, ctx); ok {
		t.Error("vacuous predicate accepted")
	}
	taut := predicate.New(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(-1e9)})
	if _, ok := Score(Candidate{Pred: taut, Target: badTarget(res)}, ctx); ok {
		t.Error("tautological predicate accepted")
	}
}

func TestExcessPenalty(t *testing.T) {
	res, ctx := fixture(t)
	// A blunt predicate that removes everything culpable AND 20 clean
	// rows: same error improvement, lower score.
	blunt := predicate.New(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(9)})
	// matches rows with v >= 9 → all 40 → tautology. Use site-based:
	blunt = predicate.New(predicate.Clause{Col: "site", Op: predicate.OpGe, Val: engine.NewInt(2)})
	bluntSc, ok := Score(Candidate{Pred: blunt, Target: badTarget(res), Origin: "blunt"}, ctx)
	if !ok {
		t.Fatal("blunt predicate rejected")
	}
	surgical, ok := Score(Candidate{Pred: memoPred(), Target: badTarget(res), Origin: "surgical"}, ctx)
	if !ok {
		t.Fatal("surgical predicate rejected")
	}
	if bluntSc.Score >= surgical.Score {
		t.Errorf("blunt %.3f >= surgical %.3f", bluntSc.Score, surgical.Score)
	}
	if bluntSc.CulpableFrac >= 0.99 {
		t.Errorf("blunt culpable frac: %v", bluntSc.CulpableFrac)
	}
}

func TestComplexityPenalty(t *testing.T) {
	res, ctx := fixture(t)
	long := memoPred().
		And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)}).
		And(predicate.Clause{Col: "site", Op: predicate.OpEq, Val: engine.NewInt(3)})
	longSc, ok := Score(Candidate{Pred: long, Target: badTarget(res)}, ctx)
	if !ok {
		t.Fatal("long predicate rejected")
	}
	short, _ := Score(Candidate{Pred: memoPred(), Target: badTarget(res)}, ctx)
	if longSc.Score >= short.Score {
		t.Errorf("complexity not penalized: %.3f vs %.3f", longSc.Score, short.Score)
	}
}

func TestPruneDropsJunkClauses(t *testing.T) {
	res, ctx := fixture(t)
	junky := memoPred().And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)})
	cand := Candidate{Pred: junky, Target: badTarget(res)}
	sc, ok := Score(cand, ctx)
	if !ok {
		t.Fatal("junky rejected")
	}
	pruned, prunedSc := Prune(cand, sc, ctx)
	if pruned.Pred.Len() != 1 {
		t.Errorf("pruned to %s", pruned.Pred)
	}
	if prunedSc.Score < sc.Score {
		t.Error("pruning made score worse")
	}
}

func TestRankAllDedupsAndSorts(t *testing.T) {
	res, ctx := fixture(t)
	target := badTarget(res)
	cands := []Candidate{
		{Pred: memoPred(), Origin: "a", Target: target},
		{Pred: memoPred(), Origin: "b", Target: target}, // duplicate
		{Pred: predicate.New(predicate.Clause{Col: "site", Op: predicate.OpEq, Val: engine.NewInt(3)}), Origin: "c", Target: target},
	}
	out := RankAll(cands, ctx)
	if len(out) != 2 {
		t.Fatalf("dedup failed: %d results", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Error("not sorted by score")
		}
	}
}

func TestDefaultWeightsUsedOnZero(t *testing.T) {
	res, ctx := fixture(t)
	ctx.Weights = Weights{}
	sc, ok := Score(Candidate{Pred: memoPred(), Target: badTarget(res)}, ctx)
	if !ok || sc.Score <= 0 {
		t.Errorf("zero weights should fall back to defaults: %+v", sc)
	}
}

func TestMergeAdjacentWidensBounds(t *testing.T) {
	res, ctx := fixture(t)
	ctx.DisablePrune = true // keep both bounds of each range for the merge to widen
	target := badTarget(res)
	// Two overlapping ranges around the anomaly (v = 100): [95,100] and
	// [100,105]. Merged: v >= 95 AND v <= 105 — covers all of it and
	// scores at least as well.
	lowHalf := predicate.New(
		predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(95)},
		predicate.Clause{Col: "v", Op: predicate.OpLe, Val: engine.NewFloat(100)},
	)
	highHalf := predicate.New(
		predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(100)},
		predicate.Clause{Col: "v", Op: predicate.OpLe, Val: engine.NewFloat(105)},
	)
	cands := []Candidate{
		{Pred: lowHalf, Origin: "lo", Target: target},
		{Pred: highHalf, Origin: "hi", Target: target},
	}
	out := RankAll(cands, ctx)
	if len(out) == 0 {
		t.Fatal("no results")
	}
	top := out[0]
	if top.NumTuples != 10 {
		t.Errorf("merged predicate should cover all 10 anomalous tuples, got %d (%s)", top.NumTuples, top.Pred)
	}
	if len(out) != 1 || !strings.Contains(top.Origin, "merge") || top.Pred.String() != "v >= 95.0 AND v <= 105.0" {
		t.Errorf("the two ranges should merge into their envelope, got %v", out)
	}
}

func TestDisablePruneKeepsClauses(t *testing.T) {
	res, ctx := fixture(t)
	ctx.DisablePrune = true
	junky := memoPred().And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)})
	out := RankAll([]Candidate{{Pred: junky, Target: badTarget(res)}}, ctx)
	if len(out) == 0 {
		t.Fatal("no results")
	}
	if out[0].Complexity != 2 {
		t.Errorf("no-prune complexity: %d (%s)", out[0].Complexity, out[0].Pred)
	}
}

func TestDisableMergeKeepsBoth(t *testing.T) {
	res, ctx := fixture(t)
	ctx.DisableMerge = true
	ctx.DisablePrune = true
	target := badTarget(res)
	lowHalf := predicate.New(
		predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(95)},
		predicate.Clause{Col: "v", Op: predicate.OpLe, Val: engine.NewFloat(98)},
	)
	highHalf := predicate.New(
		predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(98)},
		predicate.Clause{Col: "v", Op: predicate.OpLe, Val: engine.NewFloat(105)},
	)
	out := RankAll([]Candidate{
		{Pred: lowHalf, Target: target},
		{Pred: highHalf, Target: target},
	}, ctx)
	for _, s := range out {
		if strings.Contains(s.Origin, "merge") {
			t.Errorf("merge ran despite DisableMerge: %s", s.Origin)
		}
	}
}

func TestMergeColumnEnvelope(t *testing.T) {
	// Both sides have lower and upper bounds: envelope takes the looser.
	a := []predicate.Clause{
		{Col: "x", Op: predicate.OpGe, Val: engine.NewInt(5)},
		{Col: "x", Op: predicate.OpLe, Val: engine.NewInt(10)},
	}
	b := []predicate.Clause{
		{Col: "x", Op: predicate.OpGe, Val: engine.NewInt(2)},
		{Col: "x", Op: predicate.OpLe, Val: engine.NewInt(8)},
	}
	out, ok := mergeColumn(a, b)
	if !ok || len(out) != 2 {
		t.Fatalf("mergeColumn: %v %v", out, ok)
	}
	if out[0].Val.Int() != 2 || out[1].Val.Int() != 10 {
		t.Errorf("envelope: %v", out)
	}
	// Bound on one side only: drops.
	c := []predicate.Clause{{Col: "x", Op: predicate.OpGe, Val: engine.NewInt(5)}}
	d := []predicate.Clause{{Col: "x", Op: predicate.OpLe, Val: engine.NewInt(8)}}
	if _, ok := mergeColumn(c, d); ok {
		t.Error("one-sided bounds should not merge")
	}
	// Different equalities: cannot merge.
	e := []predicate.Clause{{Col: "x", Op: predicate.OpEq, Val: engine.NewInt(1)}}
	f := []predicate.Clause{{Col: "x", Op: predicate.OpEq, Val: engine.NewInt(2)}}
	if _, ok := mergeColumn(e, f); ok {
		t.Error("different equalities merged")
	}
}

func TestScoreWithoutTargetSkipsAccuracy(t *testing.T) {
	res, ctx := fixture(t)
	_ = res
	sc, ok := Score(Candidate{Pred: memoPred()}, ctx)
	if !ok {
		t.Fatal("rejected")
	}
	if sc.F1 != 0 || sc.Precision != 0 {
		t.Errorf("no-target accuracy: %+v", sc)
	}
	if sc.ErrImprovement < 0.99 {
		t.Errorf("err term should still apply: %v", sc.ErrImprovement)
	}
}

func TestScoreZeroEps(t *testing.T) {
	res, ctx := fixture(t)
	ctx.Eps = 0
	sc, ok := Score(Candidate{Pred: memoPred(), Target: badTarget(res)}, ctx)
	if !ok {
		t.Fatal("rejected")
	}
	if sc.ErrImprovement != 0 {
		t.Errorf("zero-eps improvement: %v", sc.ErrImprovement)
	}
}

func TestMergeRejectsDifferentColumns(t *testing.T) {
	a := memoPred()
	b := predicate.New(predicate.Clause{Col: "site", Op: predicate.OpEq, Val: engine.NewInt(3)})
	if _, ok := mergePredicates(a, b); ok {
		t.Error("merged predicates over different columns")
	}
}

func TestMergeSameEquality(t *testing.T) {
	a := memoPred()
	m, ok := mergePredicates(a, a)
	if !ok || m.Key() != a.Key() {
		t.Errorf("self-merge: %v %v", m, ok)
	}
}

func TestScoredString(t *testing.T) {
	res, ctx := fixture(t)
	sc, _ := Score(Candidate{Pred: memoPred(), Target: badTarget(res), Origin: "o"}, ctx)
	if sc.String() == "" {
		t.Error("empty String()")
	}
}
