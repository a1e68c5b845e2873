package ranker

import (
	"math"
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
	// The ablation drops exactly that term.
	_, noExcess := fixture(t)
	noExcess.DisableExcess = true
	free, ok := Score(Candidate{Pred: blunt, Target: badTarget(res), Origin: "blunt"}, noExcess)
	if want := bluntSc.Score + weightExcess*(1-bluntSc.CulpableFrac); !ok || math.Abs(free.Score-want) > 1e-12 {
		t.Errorf("DisableExcess: blunt scores %.4f, want %.4f", free.Score, want)
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
	pruned, prunedSc := prune(cand, sc, ctx, ctx.newEnv())
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
		// A tree's and a subgroup rule's spelling of one integer bound.
		{Pred: predicate.New(predicate.Clause{Col: "site", Op: predicate.OpGt, Val: engine.NewInt(2)}), Origin: "tree", Target: target},
		{Pred: predicate.New(predicate.Clause{Col: "site", Op: predicate.OpGe, Val: engine.NewInt(3)}), Origin: "subgroup", Target: target},
	}
	out, st, err := RankAllCarry(cands, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || st.Len() != 3 {
		t.Fatalf("dedup failed: %d results", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Error("not sorted by score")
		}
	}
}

func TestDisablePruneKeepsClauses(t *testing.T) {
	res, ctx := fixture(t)
	ctx.DisablePrune = true
	junky := memoPred().And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)})
	out, _, err := RankAllCarry([]Candidate{{Pred: junky, Target: badTarget(res)}}, ctx)
	if err != nil || len(out) == 0 {
		t.Fatal("no results")
	}
	if out[0].Complexity != 2 {
		t.Errorf("no-prune complexity: %d (%s)", out[0].Complexity, out[0].Pred)
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

func TestScoredString(t *testing.T) {
	res, ctx := fixture(t)
	sc, _ := Score(Candidate{Pred: memoPred(), Target: badTarget(res), Origin: "o"}, ctx)
	if sc.String() == "" {
		t.Error("empty String()")
	}
}
