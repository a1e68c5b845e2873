package feature

import (
	"math"
	"sort"
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
	var rows [][]engine.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []engine.Value{
			engine.NewInt(int64(i)),
			engine.NewFloat(float64(i % 50)),
			engine.NewString(cities[i%len(cities)]),
			engine.NewFloat(7),
		})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
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
	var rows [][]engine.Value
	for i := 0; i < 10; i++ {
		rows = append(rows, []engine.Value{engine.Null, engine.NewFloat(float64(i))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(tbl, Options{})
	if len(sp.Attrs) != 1 || sp.Attrs[0].Name != "y" {
		t.Errorf("all-null column should be skipped: %+v", sp.Attrs)
	}
}

// TestBucketizeMatchesSearch holds bucketize's count of the cuts below a
// value to sort.SearchFloat64s over the sorted cuts (NaN: every cut), at
// NaN, ±0, ±Inf, each cut and each cut's neighbours, for cut lists of 1
// to numThresholds cuts, -0 and ±Inf among them.
func TestBucketizeMatchesSearch(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, ths := range [][]float64{
		{0}, {negZero}, {-1, 2.5}, {math.Inf(-1), 0, math.Inf(1)},
		{-1e300, -3, -0.5, negZero, 1e-300, 0.25, 1, 2, 3.75, 10, 1e6, math.MaxFloat64},
	} {
		vals := []float64{math.NaN(), 0, negZero, math.Inf(1), math.Inf(-1)}
		for _, c := range ths {
			vals = append(vals, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		got := bucketize(vals, ths)
		for i, v := range vals {
			want := len(ths)
			if !math.IsNaN(v) {
				want = sort.SearchFloat64s(ths, v)
			}
			if int(got[i]) != want {
				t.Errorf("cuts %v, value %v: bucket %d, want %d", ths, v, got[i], want)
			}
		}
	}
}
