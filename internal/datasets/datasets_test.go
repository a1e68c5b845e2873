package datasets

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/testgen"
)

func TestIntelDeterministic(t *testing.T) {
	a, ta := Intel(IntelConfig{Rows: 5000, Seed: 3})
	b, tb := Intel(IntelConfig{Rows: 5000, Seed: 3})
	if a.NumRows() != b.NumRows() || a.NumRows() != 5000 {
		t.Fatalf("rows: %d vs %d", a.NumRows(), b.NumRows())
	}
	for r := 0; r < 100; r++ {
		for c := 0; c < a.NumCols(); c++ {
			if !engine.Equal(a.Value(r, c), b.Value(r, c)) {
				t.Fatalf("row %d col %d differ", r, c)
			}
		}
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("truth labels differ across runs")
		}
	}
	c, _ := Intel(IntelConfig{Rows: 5000, Seed: 4})
	same := true
	for r := 0; r < 100 && same; r++ {
		if !engine.Equal(a.Value(r, 3), c.Value(r, 3)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical temperatures")
	}
}

func TestIntelAnomalyShape(t *testing.T) {
	tbl, truth := Intel(IntelConfig{Rows: 30_000, Seed: 1})
	tempCol := tbl.Schema().ColIndex("temperature")
	voltCol := tbl.Schema().ColIndex("voltage")
	moteCol := tbl.Schema().ColIndex("moteid")
	anomalous, motes := 0, map[int64]bool{}
	for i := 0; i < tbl.NumRows(); i++ {
		if !truth[i] {
			continue
		}
		anomalous++
		temp := tbl.Value(i, tempCol).Float()
		volt := tbl.Value(i, voltCol).Float()
		if temp < 90 {
			t.Errorf("anomalous row %d temp %.1f < 90", i, temp)
		}
		if volt > 2.45 {
			t.Errorf("anomalous row %d voltage %.2f > 2.45", i, volt)
		}
		motes[tbl.Value(i, moteCol).Int()] = true
	}
	if anomalous == 0 {
		t.Fatal("no anomalies generated")
	}
	frac := float64(anomalous) / float64(tbl.NumRows())
	if frac < 0.005 || frac > 0.25 {
		t.Errorf("anomaly fraction %.3f out of range", frac)
	}
	if len(motes) != 3 {
		t.Errorf("failing motes: %d, want 3", len(motes))
	}
	// Clean rows look like an office.
	clean := 0
	for i := 0; i < tbl.NumRows() && clean < 1000; i++ {
		if truth[i] {
			continue
		}
		clean++
		temp := tbl.Value(i, tempCol).Float()
		if temp < 55 || temp > 85 {
			t.Errorf("clean row %d temp %.1f out of office range", i, temp)
		}
	}
}

func TestIntelWindowQueryRuns(t *testing.T) {
	db, _ := IntelDB(IntelConfig{Rows: 10_000, Seed: 2})
	res, err := testgen.Query(t.Context(), db, IntelWindowSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() < 2 {
		t.Errorf("windows: %d", res.NumRows())
	}
	// Suspicious windows must exist (stddev > 10).
	stdCol := res.Table.Schema().ColIndex("std_temp")
	found := false
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, stdCol)
		if !v.IsNull() && v.Float() > 10 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no high-stddev window; Figure 4 shape broken")
	}
}

func TestFECDeterministicAndLabeled(t *testing.T) {
	a, ta := FEC(FECConfig{Rows: 20_000, Seed: 5})
	b, tb := FEC(FECConfig{Rows: 20_000, Seed: 5})
	if a.NumRows() != 20_000 {
		t.Fatalf("rows: %d", a.NumRows())
	}
	for r := 0; r < 100; r++ {
		if !engine.Equal(a.Value(r, 5), b.Value(r, 5)) {
			t.Fatal("amounts differ across same-seed runs")
		}
	}
	_ = ta
	_ = tb
}

func TestFECAnomalyShape(t *testing.T) {
	cfg := FECConfig{Rows: 30_000, Seed: 1}
	tbl, truth := FEC(cfg)
	memoCol := tbl.Schema().ColIndex("memo")
	amtCol := tbl.Schema().ColIndex("amount")
	dayCol := tbl.Schema().ColIndex("day")
	candCol := tbl.Schema().ColIndex("candidate")
	spikes := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if !truth[i] {
			// Non-anomalous rows never carry the reattribution memo.
			if tbl.Value(i, memoCol).Str() == MemoReattribution {
				t.Fatalf("clean row %d has reattribution memo", i)
			}
			continue
		}
		spikes++
		if tbl.Value(i, memoCol).Str() != MemoReattribution {
			t.Errorf("anomalous row %d memo %q", i, tbl.Value(i, memoCol).Str())
		}
		if tbl.Value(i, amtCol).Float() >= 0 {
			t.Errorf("anomalous row %d amount %.0f >= 0", i, tbl.Value(i, amtCol).Float())
		}
		day := tbl.Value(i, dayCol).Int()
		if day < 490 || day > 510 {
			t.Errorf("anomalous row %d day %d outside spike window", i, day)
		}
		if tbl.Value(i, candCol).Str() != "McCain" {
			t.Errorf("anomalous row %d candidate %q", i, tbl.Value(i, candCol).Str())
		}
	}
	if spikes != 400 {
		t.Errorf("spike rows: %d, want 400", spikes)
	}
}

func TestFECDailyQueryShowsNegativeSpike(t *testing.T) {
	db, _ := FECDB(FECConfig{Rows: 60_000, Seed: 1})
	res, err := testgen.Query(t.Context(), db, FECDailySQL("McCain"))
	if err != nil {
		t.Fatal(err)
	}
	totCol := res.Table.Schema().ColIndex("total")
	dayCol := res.Table.Schema().ColIndex("day")
	worst, worstDay := 0.0, int64(-1)
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, totCol)
		if !v.IsNull() && v.Float() < worst {
			worst = v.Float()
			worstDay = res.Table.Value(r, dayCol).Int()
		}
	}
	if worst >= 0 {
		t.Fatal("no negative day; Figure 7 spike missing")
	}
	if worstDay < 490 || worstDay > 510 {
		t.Errorf("worst day %d not near 500", worstDay)
	}
}

func TestTruthScore(t *testing.T) {
	truth := NewTruth([]bool{true, true, false, false, false})
	if truth.n != 2 {
		t.Errorf("positives: %d", truth.n)
	}
	p, r, f1 := truth.Score([]int{0, 2}, nil)
	if p != 0.5 || r != 0.5 || f1 != 0.5 {
		t.Errorf("score: %v %v %v", p, r, f1)
	}
	// Restricted population.
	p, r, _ = truth.Score([]int{0}, []int{0, 2})
	if p != 1 || r != 1 {
		t.Errorf("population-restricted: %v %v", p, r)
	}
	// Degenerate cases.
	if p, r, f1 := truth.Score(nil, nil); p != 0 || r != 0 || f1 != 0 {
		t.Error("empty prediction should be zeros")
	}
	if !truth.Label(0) || truth.Label(2) || truth.Label(99) {
		t.Error("Label wrong")
	}
}

func TestIntelSchemaStable(t *testing.T) {
	s := IntelSchema()
	want := []string{"ts", "epoch", "moteid", "temperature", "humidity", "light", "voltage"}
	for i, n := range want {
		if s[i].Name != n {
			t.Errorf("col %d = %s, want %s", i, s[i].Name, n)
		}
	}
	f := fecSchema()
	if f.ColIndex("memo") < 0 || f.ColIndex("amount") < 0 {
		t.Error("FEC schema missing columns")
	}
}
