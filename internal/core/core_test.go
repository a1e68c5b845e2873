package core

import (
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
)

// intelFixture bundles everything the Intel-flow tests need.
type intelFixture struct {
	res     *exec.Result
	dr      *DebugResult
	truth   *datasets.Truth
	suspect []int
}

// debugIntel runs the full Figure 4/6 flow on a synthetic Intel trace.
func debugIntel(t *testing.T, rows int) *intelFixture {
	t.Helper()
	db, labels := datasets.IntelDB(datasets.IntelConfig{Rows: rows, Seed: 7})
	res, err := exec.RunSQL(db, datasets.IntelWindowSQL)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// S: windows whose stddev is far above typical (Figure 4 left).
	suspect, err := SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		t.Fatalf("suspect: %v", err)
	}
	if len(suspect) == 0 {
		t.Fatal("no suspect windows — generator should produce high-stddev windows")
	}
	// D': zoomed-in outlier readings (Figure 4 right).
	dprime, err := ExamplesWhere(res, suspect, "temperature > 100")
	if err != nil {
		t.Fatalf("examples: %v", err)
	}
	if len(dprime) == 0 {
		t.Fatal("no example tuples above 100F")
	}
	dr, err := Debug(DebugRequest{
		Result:   res,
		AggItem:  -1, // first aggregate = avg_temp
		Suspect:  suspect,
		Examples: dprime,
		Metric:   errmetric.TooHigh{C: 70},
	})
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	return &intelFixture{res: res, dr: dr, truth: datasets.NewTruth(labels), suspect: suspect}
}

func TestDebugIntelFindsFailingMotes(t *testing.T) {
	fx := debugIntel(t, 40_000)
	dr := fx.dr
	if len(dr.Explanations) == 0 {
		t.Fatal("no explanations returned")
	}
	for i, e := range dr.Explanations {
		t.Logf("#%d %s", i+1, e.Scored)
	}
	top := dr.Explanations[0]
	cols := strings.ToLower(strings.Join(top.Pred.Columns(), ","))
	if !strings.Contains(cols, "moteid") && !strings.Contains(cols, "voltage") && !strings.Contains(cols, "humidity") {
		t.Errorf("top predicate %q references none of the causal attributes", top.Pred)
	}
	if top.ErrImprovement < 0.3 {
		t.Errorf("top predicate improves error only %.0f%%", 100*top.ErrImprovement)
	}
	matched := top.Pred.MatchingRows(fx.res.Source, dr.F)
	p, r, f1 := fx.truth.Score(matched, dr.F)
	t.Logf("top predicate vs truth: precision=%.2f recall=%.2f f1=%.2f", p, r, f1)
	if f1 < 0.5 {
		t.Errorf("top predicate f1=%.2f, want >= 0.5", f1)
	}
}

func TestDebugFECFindsReattribution(t *testing.T) {
	db, labels := datasets.FECDB(datasets.FECConfig{Rows: 60_000, Seed: 3})
	res, err := exec.RunSQL(db, datasets.FECDailySQL("McCain"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// S: days with negative totals (the Figure 7 spike).
	suspect, err := SuspectWhere(res, "total", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() < 0
	})
	if err != nil {
		t.Fatalf("suspect: %v", err)
	}
	if len(suspect) == 0 {
		t.Fatal("no negative-total days; generator must inject the spike")
	}
	dprime, err := ExamplesWhere(res, suspect, "amount < 0")
	if err != nil {
		t.Fatalf("examples: %v", err)
	}
	dr, err := Debug(DebugRequest{
		Result:   res,
		AggItem:  -1,
		Suspect:  suspect,
		Examples: dprime,
		Metric:   errmetric.TooLow{C: 0},
	})
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	if len(dr.Explanations) == 0 {
		t.Fatal("no explanations returned")
	}
	for i, e := range dr.Explanations {
		t.Logf("#%d %s", i+1, e.Scored)
	}
	// One of the top-3 predicates must reference the memo or negative
	// amounts (the walkthrough's REATTRIBUTION TO SPOUSE finding).
	found := false
	for _, e := range dr.Explanations[:min(3, len(dr.Explanations))] {
		s := strings.ToLower(e.Pred.String())
		if strings.Contains(s, "memo") || strings.Contains(s, "amount") || strings.Contains(s, "occupation") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no top-3 predicate references memo/amount/occupation; got %v", dr.Explanations)
	}

	// Clicking the top predicate must remove most of the negative mass.
	cleaned, err := CleanAndRequery(res, dr.Explanations[0].Pred)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	negBefore := negativeMass(t, res)
	negAfter := negativeMass(t, cleaned)
	t.Logf("negative mass before=%.0f after=%.0f", negBefore, negAfter)
	if negAfter > 0.5*negBefore {
		t.Errorf("cleaning removed too little negative mass: before=%.0f after=%.0f", negBefore, negAfter)
	}
	_ = labels
}

func negativeMass(t *testing.T, res *exec.Result) float64 {
	t.Helper()
	ci := res.Table.Schema().ColIndex("total")
	if ci < 0 {
		t.Fatalf("result lacks total column: %s", res.Table.Schema())
	}
	var mass float64
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, ci)
		if !v.IsNull() && v.Float() < 0 {
			mass += -v.Float()
		}
	}
	return mass
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDebugRefusesDistinctOverStrings pins the one shape Debug declines
// by name: a DISTINCT aggregate whose set is keyed by string values (a
// computed string, or a string column under anything but count) has no
// float argument view, and there is no second, boxed scorer to fall to:
// the reference scorer refuses it too. The query itself runs, and
// count(DISTINCT <string column>) — scanned and scored on dictionary
// codes — debugs.
func TestDebugRefusesDistinctOverStrings(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "s", engine.TString))
	var rows [][]engine.Value
	for i := 0; i < 60; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i % 2)), engine.NewString(string(rune('a' + i%(3+4*(i%2)))))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	for agg, refused := range map[string]bool{
		"count(DISTINCT s)":        false,
		"count(DISTINCT lower(s))": true,
		"min(DISTINCT s)":          true,
	} {
		res, err := exec.RunSQL(db, "SELECT k, "+agg+" AS a FROM t GROUP BY k")
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		dr, err := Debug(DebugRequest{Result: res, AggItem: -1, Suspect: []int{1}, Examples: []int{1, 3}, Metric: errmetric.TooHigh{C: 3}})
		switch {
		case refused && (err == nil || !strings.Contains(err.Error(), "DISTINCT aggregate over string values")):
			t.Errorf("%s: Debug returned %v, %v; want the named refusal", agg, dr, err)
		case !refused && err != nil:
			t.Errorf("%s: %v", agg, err)
		}
		_, err = influence.EpsWithoutRows(res, []int{1}, 0, errmetric.TooHigh{C: 3}, []int{1, 3})
		if refused != (err != nil) || (refused && !strings.Contains(err.Error(), "DISTINCT aggregate over string values")) {
			t.Errorf("%s: EpsWithoutRows returned %v; refused %v", agg, err, refused)
		}
	}
}
