package feature

import (
	"testing"

	"repro/internal/engine"
)

func mixedTable(t *testing.T, n int) *engine.Table {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"id", engine.TInt,
		"temp", engine.TFloat,
		"city", engine.TString,
		"constant", engine.TFloat,
	))
	cities := []string{"BOSTON", "NYC", "BOSTON", "LA"}
	for i := 0; i < n; i++ {
		tbl.MustAppendRow(
			engine.NewInt(int64(i)),
			engine.NewFloat(float64(i%50)),
			engine.NewString(cities[i%len(cities)]),
			engine.NewFloat(7),
		)
	}
	return tbl
}

func TestNewSpaceDetectsKinds(t *testing.T) {
	sp := NewSpace(mixedTable(t, 100), Options{}).Discretize()
	if len(sp.Attrs) != 4 {
		t.Fatalf("attrs: %d", len(sp.Attrs))
	}
	byName := map[string]*Attr{}
	for i := range sp.Attrs {
		byName[sp.Attrs[i].Name] = &sp.Attrs[i]
	}
	if byName["id"].Kind != Numeric || byName["temp"].Kind != Numeric {
		t.Error("numeric detection")
	}
	if byName["city"].Kind != Categorical {
		t.Error("categorical detection")
	}
	if len(byName["city"].Values) != 3 {
		t.Errorf("city values: %v", byName["city"].Values)
	}
	// Most frequent first: BOSTON appears twice per cycle.
	if byName["city"].Values[0].Str() != "BOSTON" {
		t.Errorf("frequency order: %v", byName["city"].Values[0])
	}
	if len(byName["constant"].Thresholds) > 1 {
		t.Errorf("constant thresholds: %v", byName["constant"].Thresholds)
	}
}

func TestExclusions(t *testing.T) {
	sp := NewSpace(mixedTable(t, 50), Options{Exclude: []string{"TEMP", "city"}})
	for _, a := range sp.Attrs {
		if a.Name == "temp" || a.Name == "city" {
			t.Errorf("excluded attr %s present", a.Name)
		}
	}
}

func TestThresholdsSortedUnique(t *testing.T) {
	sp := NewSpace(mixedTable(t, 500), Options{}).Discretize()
	for _, a := range sp.Attrs {
		if a.Kind != Numeric {
			continue
		}
		if a.Name != "constant" && len(a.Thresholds) == 0 {
			t.Errorf("%s has no thresholds", a.Name)
		}
		for i := 1; i < len(a.Thresholds); i++ {
			if a.Thresholds[i] <= a.Thresholds[i-1] {
				t.Errorf("%s thresholds not strictly increasing: %v", a.Name, a.Thresholds)
				break
			}
		}
	}
}

func TestRowsSubset(t *testing.T) {
	tbl := mixedTable(t, 100)
	sp := NewSpace(tbl, Options{Rows: []int{0, 1, 2, 3}}).Discretize()
	var a *Attr
	for i := range sp.Attrs {
		if sp.Attrs[i].Name == "id" {
			a = &sp.Attrs[i]
		}
	}
	if a == nil || len(sp.Frame.Rows) != 4 || len(a.Thresholds) == 0 || a.Thresholds[len(a.Thresholds)-1] > 3 {
		t.Errorf("subset stats: %+v over %d rows", a, len(sp.Frame.Rows))
	}
}

// Past sampleCap rows the statistics come from an evenly spaced sample;
// the frame still covers every row, and the profile is the boxed one over
// that sample.
func TestSampleCap(t *testing.T) {
	checkSpace(t, "sampled", mixedTable(t, sampleCap+sampleCap/3), nil, Options{})
}

func TestNullColumnSkipped(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TFloat, "y", engine.TFloat))
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow(engine.Null, engine.NewFloat(float64(i)))
	}
	sp := NewSpace(tbl, Options{})
	if len(sp.Attrs) != 1 || sp.Attrs[0].Name != "y" {
		t.Errorf("all-null column should be skipped: %+v", sp.Attrs)
	}
}
