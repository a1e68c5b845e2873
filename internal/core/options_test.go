package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/testgen"
)

// smallIntel builds a fast fixture shared by the option-surface tests:
// the smallest Intel trace whose suspect windows exceed TooHigh{C: 70}
// (ε = 0.905; at 20,000 and 30,000 rows ε is 0 and the influence stage
// contributes nothing — see TestDebugZeroEps).
func smallIntel(t *testing.T) (*exec.Result, []int, []int) {
	t.Helper()
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 40_000, Seed: 1})
	res, err := testgen.Query(t.Context(), db, datasets.IntelWindowSQL)
	if err != nil {
		t.Fatal(err)
	}
	suspect, err := SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		t.Fatal(err)
	}
	dprime, err := ExamplesWhereCtx(t.Context(), res, suspect, "temperature > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(suspect) == 0 || len(dprime) == 0 {
		t.Fatal("fixture produced no anomaly at this size")
	}
	return res, suspect, dprime
}

func debugWith(t *testing.T, res *exec.Result, suspect, dprime []int, opt Options) *DebugResult {
	t.Helper()
	dr, err := Debug(DebugRequest{
		Result: res, AggItem: -1, Suspect: suspect,
		Examples: dprime, Metric: errmetric.TooHigh{C: 70}, Opt: opt,
	})
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	if dr.Eps <= 0 {
		t.Fatalf("fixture has ε = %g: every influence is 0 and the options under test decide nothing", dr.Eps)
	}
	for _, e := range dr.Explanations {
		if strings.Contains(strings.ToLower(e.Pred.String()), "temperature") {
			t.Errorf("%s explains the aggregate by its own argument", e.Pred)
		}
	}
	return dr
}

func TestOptionInfluenceQuantile(t *testing.T) {
	res, s, _ := smallIntel(t)
	// Without examples the high-influence set is D': a stricter quantile
	// shrinks it.
	def := debugWith(t, res, s, nil, Options{})
	strict := debugWith(t, res, s, nil, Options{InfluenceQuantile: 0.9})
	if len(strict.DPrime) == 0 || len(strict.DPrime) >= len(def.DPrime) {
		t.Errorf("D' is %d tuples at quantile 0.9, %d at the default %g", len(strict.DPrime), len(def.DPrime), influenceQuantile)
	}
}

func TestOptionMaxLearnRows(t *testing.T) {
	res, s, d := smallIntel(t)
	// The cap bounds what the learners — and the ranker's accuracy terms —
	// see; negative disables it (0 means the default).
	for _, c := range []struct {
		opt  Options
		want func(n int) bool
	}{
		{Options{MaxLearnRows: 2000}, func(n int) bool { return n == 2000 }},
		{Options{}, func(n int) bool { return n == maxLearnRows }},
		{Options{MaxLearnRows: -1}, func(n int) bool { return n > maxLearnRows }},
	} {
		req := DebugRequest{Result: res, AggItem: -1, Suspect: s, Examples: d, Metric: errmetric.TooHigh{C: 70}, Opt: c.opt}
		c.opt.defaults()
		run := &debugRun{req: req, opt: c.opt, out: &DebugResult{Timings: map[string]time.Duration{}}}
		an, err := influence.RankCtx(t.Context(), res, s, 0, req.Metric)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.preprocess(an); err != nil {
			t.Fatal(err)
		}
		if !c.want(len(run.learnPop)) {
			t.Errorf("MaxLearnRows %d: the learners see %d rows", c.opt.MaxLearnRows, len(run.learnPop))
		}
	}
}

// The ablation switches change what the ranker does, not only what it
// returns: pruning shortens the first answer, and without the excess
// term a predicate's score no longer depends on whom it matches.
func TestOptionWeights(t *testing.T) {
	res, s, d := smallIntel(t)
	def := debugWith(t, res, s, d, Options{})
	noPrune := debugWith(t, res, s, d, Options{DisablePrune: true})
	if noPrune.Explanations[0].Complexity <= def.Explanations[0].Complexity {
		t.Errorf("unpruned first answer %s is no longer than the pruned %s", noPrune.Explanations[0].Pred, def.Explanations[0].Pred)
	}
	noExcess := debugWith(t, res, s, d, Options{DisableExcess: true})
	for _, e := range noExcess.Explanations {
		if want := 0.45*e.ErrImprovement + 0.45*e.F1 - 0.04*float64(e.Complexity-1); math.Abs(e.Score-want) > 1e-12 {
			t.Errorf("%s scores %.4f without the excess term, want %.4f", e.Pred, e.Score, want)
		}
	}
	penalized := false
	for _, e := range def.Explanations {
		penalized = penalized || e.CulpableFrac < 1
	}
	if !penalized {
		t.Error("no default explanation pays the excess penalty: the fixture cannot tell the switch from its absence")
	}
}

// TestDebugZeroEps pins what Debug does when the suspect groups do not
// violate the metric at all (the Intel trace at 20,000 rows: avg_temp
// stays under 70): without examples there is nothing to explain; with
// examples every ε-improvement is 0 and the ranking is by how well a
// predicate separates D' (less the complexity and excess penalties).
func TestDebugZeroEps(t *testing.T) {
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 20_000, Seed: 7})
	res, err := testgen.Query(t.Context(), db, datasets.IntelWindowSQL)
	if err != nil {
		t.Fatal(err)
	}
	suspect, err := SuspectWhere(res, "std_temp", func(v engine.Value) bool { return !v.IsNull() && v.Float() > 10 })
	if err != nil || len(suspect) == 0 {
		t.Fatalf("suspect: %v (%d groups)", err, len(suspect))
	}
	req := DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: errmetric.TooHigh{C: 70}}
	if _, err := Debug(req); err == nil || !strings.Contains(err.Error(), "nothing to explain") {
		t.Fatalf("Debug without examples at ε = 0: %v", err)
	}
	if req.Examples, err = ExamplesWhereCtx(t.Context(), res, suspect, "temperature > 100"); err != nil || len(req.Examples) == 0 {
		t.Fatalf("examples: %v (%d rows)", err, len(req.Examples))
	}
	dr, err := Debug(req)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Eps != 0 || len(dr.Explanations) == 0 {
		t.Fatalf("ε = %g, %d explanations", dr.Eps, len(dr.Explanations))
	}
	for _, e := range dr.Explanations {
		want := 0.45*e.F1 - 0.04*float64(e.Complexity-1) - 0.2*(1-e.CulpableFrac)
		if e.ErrImprovement != 0 || math.Abs(e.Score-want) > 1e-12 {
			t.Errorf("%s improves ε = 0 by %g and scores %.4f, want %.4f from separation alone", e.Pred, e.ErrImprovement, e.Score, want)
		}
	}
}

func TestDebugSecondAggregate(t *testing.T) {
	res, s, d := smallIntel(t)
	// AggItem 2 = std_temp (items: w30, avg_temp, std_temp).
	dr, err := Debug(DebugRequest{
		Result: res, AggItem: 2, Suspect: s, Examples: d,
		Metric: errmetric.TooHigh{C: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Eps <= 0 {
		t.Errorf("eps over stddev aggregate: %v", dr.Eps)
	}
	if len(dr.Explanations) == 0 {
		t.Error("no explanations for stddev debugging")
	}
}

func TestDebugErrorCases(t *testing.T) {
	res, s, d := smallIntel(t)
	cases := []struct {
		name string
		req  DebugRequest
	}{
		{"nil result", DebugRequest{Suspect: s, Metric: errmetric.TooHigh{}}},
		{"nil metric", DebugRequest{Result: res, Suspect: s}},
		{"no suspects", DebugRequest{Result: res, Metric: errmetric.TooHigh{}}},
		{"bad agg item", DebugRequest{Result: res, AggItem: 0, Suspect: s, Metric: errmetric.TooHigh{}}},
	}
	for _, c := range cases {
		if _, err := Debug(c.req); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	_ = d
	// Non-aggregate query.
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 1_000, Seed: 1})
	plain, err := testgen.Query(t.Context(), db, "SELECT moteid, temperature FROM readings LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Debug(DebugRequest{Result: plain, Suspect: []int{0}, Metric: errmetric.TooHigh{}}); err == nil {
		t.Error("non-aggregate query accepted")
	}
}

func TestCleanedSQLRendersNegation(t *testing.T) {
	res, s, d := smallIntel(t)
	dr := debugWith(t, res, s, d, Options{})
	sql := Cleaned(res.Stmt, dr.Explanations[0].Pred).String()
	if !strings.Contains(sql, "NOT (") {
		t.Errorf("cleaned SQL lacks negation: %s", sql)
	}
	// The rendered SQL must reparse and run.
	db := engine.NewDB()
	db.Register(res.Source)
	if _, err := testgen.Query(t.Context(), db, sql); err != nil {
		t.Errorf("cleaned SQL does not run: %v\n%s", err, sql)
	}
}

// Debug twice over the same result answers alike: the first pass leaves
// nothing on the result that changes the second. TestDebugDeterminism
// holds Debug over two independently executed results instead.
func TestDebugIsDeterministic(t *testing.T) {
	res, s, d := smallIntel(t)
	a := debugWith(t, res, s, d, Options{})
	b := debugWith(t, res, s, d, Options{})
	if len(a.Explanations) != len(b.Explanations) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Explanations), len(b.Explanations))
	}
	for i := range a.Explanations {
		if a.Explanations[i].Pred.String() != b.Explanations[i].Pred.String() {
			t.Errorf("rank %d differs: %s vs %s", i, a.Explanations[i].Pred, b.Explanations[i].Pred)
		}
	}
}

// NULL-heavy robustness: a third of every descriptive column is NULL.
func TestDebugWithNullHeavyData(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "tag", engine.TString, "aux", engine.TFloat))
	var rows [][]engine.Value
	for i := 0; i < 900; i++ {
		k := engine.NewInt(int64(i % 3))
		v := engine.NewFloat(10)
		tag := engine.NewString("ok")
		aux := engine.NewFloat(float64(i % 7))
		if i%3 == 2 && i%2 == 0 {
			v = engine.NewFloat(200)
			tag = engine.NewString("bad")
		}
		if i%3 == 0 {
			tag = engine.Null
		}
		if i%4 == 0 {
			aux = engine.Null
		}
		if i%11 == 0 {
			v = engine.Null
		}
		rows = append(rows, []engine.Value{k, v, tag, aux})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := testgen.Query(t.Context(), db, "SELECT k, avg(v) AS a FROM t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	suspect, err := SuspectWhere(res, "a", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 50
	})
	if err != nil || len(suspect) == 0 {
		t.Fatalf("suspect: %v %v", suspect, err)
	}
	dr, err := Debug(DebugRequest{
		Result: res, AggItem: -1, Suspect: suspect,
		Metric: errmetric.TooHigh{C: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Explanations) == 0 {
		t.Fatal("no explanations on NULL-heavy data")
	}
	top := dr.Explanations[0]
	if !strings.Contains(top.Pred.String(), "tag") && !strings.Contains(top.Pred.String(), "k") {
		t.Logf("top predicate: %s (acceptable as long as it scores)", top.Pred)
	}
}
