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
	var rows [][]engine.Value
	for i := 0; i < 40; i++ {
		memo, v := "", 10.0
		site := int64(i % 4)
		if i%4 == 3 { // 10 rows: the anomaly, all at site 3
			memo, v = "BAD", 100.0
		}
		rows = append(rows, []engine.Value{engine.NewInt(0), engine.NewFloat(v), engine.NewString(memo), engine.NewInt(site)})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
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

// scoreOne scores one candidate on a fresh prepared context; ok is also
// false when the context cannot be scored.
func scoreOne(c Candidate, ctx *Context) (Scored, bool) {
	if ctx.prepare() != nil {
		return Scored{}, false
	}
	return score(c, ctx, ctx.newEnv())
}

func TestScoreGoodPredicate(t *testing.T) {
	res, ctx := fixture(t)
	sc, ok := scoreOne(Candidate{Pred: memoPred(), Origin: "test", Target: badTarget(res)}, ctx)
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
	if _, ok := scoreOne(Candidate{Pred: empty, Target: badTarget(res)}, ctx); ok {
		t.Error("vacuous predicate accepted")
	}
	taut := predicate.New(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(-1e9)})
	if _, ok := scoreOne(Candidate{Pred: taut, Target: badTarget(res)}, ctx); ok {
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
	bluntSc, ok := scoreOne(Candidate{Pred: blunt, Target: badTarget(res), Origin: "blunt"}, ctx)
	if !ok {
		t.Fatal("blunt predicate rejected")
	}
	surgical, ok := scoreOne(Candidate{Pred: memoPred(), Target: badTarget(res), Origin: "surgical"}, ctx)
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
	free, ok := scoreOne(Candidate{Pred: blunt, Target: badTarget(res), Origin: "blunt"}, noExcess)
	if want := bluntSc.Score + weightExcess*(1-bluntSc.CulpableFrac); !ok || math.Abs(free.Score-want) > 1e-12 {
		t.Errorf("DisableExcess: blunt scores %.4f, want %.4f", free.Score, want)
	}
}

func TestComplexityPenalty(t *testing.T) {
	res, ctx := fixture(t)
	long := memoPred().
		And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)}).
		And(predicate.Clause{Col: "site", Op: predicate.OpEq, Val: engine.NewInt(3)})
	longSc, ok := scoreOne(Candidate{Pred: long, Target: badTarget(res)}, ctx)
	if !ok {
		t.Fatal("long predicate rejected")
	}
	short, _ := scoreOne(Candidate{Pred: memoPred(), Target: badTarget(res)}, ctx)
	if longSc.Score >= short.Score {
		t.Errorf("complexity not penalized: %.3f vs %.3f", longSc.Score, short.Score)
	}
}

func TestPruneDropsJunkClauses(t *testing.T) {
	res, ctx := fixture(t)
	junky := memoPred().And(predicate.Clause{Col: "v", Op: predicate.OpGe, Val: engine.NewFloat(50)})
	cand := Candidate{Pred: junky, Target: badTarget(res)}
	sc, ok := scoreOne(cand, ctx)
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

// TestRankAllDedupsAndSorts: one set of lineage rows gives one answer,
// however it is spelled, and the answers come out sorted. The group
// under suspicion is fixture's; a second group of 26 contrast rows joins
// the population, so spellings of one row set in F can differ on it.
func TestRankAllDedupsAndSorts(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString, "site", engine.TInt))
	var rows [][]engine.Value
	add := func(k, site int64, v float64, memo string, n int) {
		for range n {
			rows = append(rows, []engine.Value{engine.NewInt(k), engine.NewFloat(v), engine.NewString(memo), engine.NewInt(site)})
		}
	}
	for i := range 40 {
		if i%4 == 3 {
			add(0, 3, 100, "BAD", 1)
		} else {
			add(0, int64(i%4), 10, "", 1)
		}
	}
	add(1, 0, 60, "", 4)  // v > 50 only
	add(1, 1, 10, "", 3)  // site = 1, with or without v <= 50
	add(1, 1, 60, "", 6)  // site = 1 without v <= 50, and v > 50
	add(1, 2, 10, "", 13) // target rows neither site-1 spelling matches
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, avg(v) AS a FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	F, contrast := res.Lineage([]int{0}), res.Lineage([]int{1})
	site := func(r int) int64 { return tbl.Value(r, 3).Int() }
	bad, site1 := bitset.New(tbl.NumRows()), bitset.New(tbl.NumRows())
	for _, r := range F {
		switch site(r) {
		case 3:
			bad.Set(r)
		case 1:
			site1.Set(r)
		}
	}
	for _, r := range contrast {
		if site(r) == 2 || (site(r) == 1 && tbl.Value(r, 1).Float() == 10) {
			site1.Set(r)
		}
	}
	metric := errmetric.TooHigh{C: 15}
	ctx := &Context{
		Res: res, Suspect: []int{0}, Ord: 0, Metric: metric,
		F: F, Population: append(append([]int(nil), F...), contrast...),
		Eps: metric.Eval([]float64{32.5}), Culpable: bad,
		// Pruning would itself cut the two-clause spelling below to the
		// one-clause one; with it off, the dedup has to choose.
		DisablePrune: true,
	}
	clause := func(col string, op predicate.Op, v engine.Value) predicate.Clause {
		return predicate.Clause{Col: col, Op: op, Val: v}
	}
	// v > 50 and v >= 100 both match F's ten BAD rows (no value lies
	// between), but v > 50 also matches ten contrast rows outside its
	// target: the higher-scoring v >= 100 is the answer.
	gt := predicate.New(clause("v", predicate.OpGt, engine.NewFloat(50)))
	ge := predicate.New(clause("v", predicate.OpGe, engine.NewFloat(100)))
	// site = 1 AND v <= 50 and site = 1 both match F's ten site-1 rows;
	// the second clause buys exactly the F1 its complexity costs, so the
	// scores tie and the one-clause spelling is the answer.
	long := predicate.New(clause("site", predicate.OpEq, engine.NewInt(1)), clause("v", predicate.OpLe, engine.NewFloat(50)))
	short := predicate.New(clause("site", predicate.OpEq, engine.NewInt(1)))
	cands := []Candidate{
		{Pred: gt, Origin: "gt", Target: bad},
		{Pred: long, Origin: "long", Target: site1},
		{Pred: ge, Origin: "ge", Target: bad},
		{Pred: short, Origin: "short", Target: site1},
	}
	longSc, _ := scoreOne(cands[1], ctx)
	if shortSc, _ := scoreOne(cands[3], ctx); longSc.Score != shortSc.Score {
		t.Fatalf("the fixture lost its tie: %s scores %v, %s %v", long, longSc.Score, short, shortSc.Score)
	}
	out, st, err := RankAllCarry(cands, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || st.Len() != len(out) {
		t.Fatalf("%d answers, %d carried, want 2 of each: %v", len(out), st.Len(), out)
	}
	got := map[string]bool{out[0].Origin: true, out[1].Origin: true}
	if !got["ge"] || !got["short"] {
		t.Errorf("answers %v, want the ge and short spellings", out)
	}
	if out[1].Score > out[0].Score {
		t.Error("not sorted by score")
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
	sc, ok := scoreOne(Candidate{Pred: memoPred()}, ctx)
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
	sc, ok := scoreOne(Candidate{Pred: memoPred(), Target: badTarget(res)}, ctx)
	if !ok {
		t.Fatal("rejected")
	}
	if sc.ErrImprovement != 0 {
		t.Errorf("zero-eps improvement: %v", sc.ErrImprovement)
	}
}

func TestScoredString(t *testing.T) {
	res, ctx := fixture(t)
	sc, _ := scoreOne(Candidate{Pred: memoPred(), Target: badTarget(res), Origin: "o"}, ctx)
	if sc.String() == "" {
		t.Error("empty String()")
	}
}
