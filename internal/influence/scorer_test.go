package influence

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// scorerResult builds a grouped query over a table with NULLs mixed in.
func scorerResult(t testing.TB, rows int, aggSQL string) *exec.Result {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	rng := rand.New(rand.NewSource(99))
	vals := make([][]engine.Value, rows)
	for i := range vals {
		v := engine.NewFloat(float64(rng.Intn(200)))
		if rng.Intn(10) == 0 {
			v = engine.Null
		}
		vals[i] = []engine.Value{engine.NewInt(int64(i % 7)), v}
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, "+aggSQL+" FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEpsWithoutBitsParity checks the bitset scoring path returns the
// same ε as the boxed EpsWithoutRows for random removal sets, across
// aggregate kinds (algebraic, extremum, holistic) and DISTINCT over each.
func TestEpsWithoutBitsParity(t *testing.T) {
	for _, aggSQL := range []string{"avg(v)", "sum(v)", "count(v)", "stddev(v)", "min(v)", "max(v)", "median(v)", "count(*)",
		"count(DISTINCT v)", "sum(DISTINCT v)", "avg(DISTINCT v + k)", "min(DISTINCT v)", "median(DISTINCT v)"} {
		res := scorerResult(t, 500, aggSQL)
		suspect := res.AllRows()
		metric := errmetric.TooHigh{C: 90}
		sc, err := NewScorer(res, suspect, 0, metric)
		if err != nil {
			t.Fatalf("%s: NewScorer: %v", aggSQL, err)
		}
		scratch := sc.NewScratch()
		rng := rand.New(rand.NewSource(5))
		n := res.Source.NumRows()
		for trial := 0; trial < 50; trial++ {
			var rows []int
			for r := 0; r < n; r++ {
				if rng.Intn(4) == 0 {
					rows = append(rows, r)
				}
			}
			want, err := EpsWithoutRows(res, suspect, 0, metric, rows)
			if err != nil {
				t.Fatal(err)
			}
			got := sc.EpsWithoutBits(bitset.FromRows(n, rows), scratch)
			if !floatsEqual(want, got) {
				t.Fatalf("%s trial %d: EpsWithoutRows=%g EpsWithoutBits=%g", aggSQL, trial, want, got)
			}
		}
	}
}

// TestFBitsIsLineageUnion checks the fanned-out F build: whichever
// workers OR the groups in, F is the suspect groups' lineage and ε is
// the metric over them with nothing removed. Hundreds of groups give
// par.Do's helpers items to take.
func TestFBitsIsLineageUnion(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	var rows [][]engine.Value
	for i := range 50_000 {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i % 500)), engine.NewFloat(float64(i % 193))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	metric := errmetric.TooHigh{C: 90}
	for _, suspect := range [][]int{{3}, {0, 6}, res.AllRows()[100:400], res.AllRows()} {
		sc, err := NewScorer(res, suspect, 0, metric)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sc.FBits().Rows(), res.Lineage(suspect); !slices.Equal(got, want) {
			t.Errorf("%d suspect groups: F has %d rows, the lineage %d", len(suspect), len(got), len(want))
		}
		want, err := EpsWithoutRows(res, suspect, 0, metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(sc.Eps(), want) {
			t.Errorf("%d suspect groups: Eps %g, want %g", len(suspect), sc.Eps(), want)
		}
	}
}

// TestRankFastParity checks the columnar Rank path matches the boxed
// path entry for entry. The boxed path is forced by reproducing the
// original algorithm through EpsWithoutRows on singleton sets.
func TestRankFastParity(t *testing.T) {
	res := scorerResult(t, 400, "avg(v)")
	suspect := res.AllRows()
	metric := errmetric.TooHigh{C: 90}
	an, err := Rank(res, suspect, 0, metric, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Influences) == 0 {
		t.Fatal("no influences")
	}
	// Spot-check deltas against the one-row removal primitive.
	for _, ti := range an.Influences[:20] {
		epsWithout, err := EpsWithoutRows(res, suspect, 0, metric, []int{ti.Row})
		if err != nil {
			t.Fatal(err)
		}
		want := an.Eps - epsWithout
		if !floatsEqual(want, ti.Delta) {
			t.Fatalf("row %d: delta=%g want %g", ti.Row, ti.Delta, want)
		}
	}
	// Influences are in F order; the top readers order what they return.
	for i, ti := range an.Influences {
		if ti.Row != an.F[i] {
			t.Fatalf("Influences[%d].Row = %d, want F[%d] = %d", i, ti.Row, i, an.F[i])
		}
	}
	top := an.TopRows(0)
	for i := 1; i < len(top); i++ {
		if deltaOf(an, top[i]) > deltaOf(an, top[i-1]) {
			t.Fatal("TopRows not sorted by descending delta")
		}
	}
}

// TestRankFastExtremumParity checks every LOO delta of min and max, where
// leaving out the last copy of a group's extremum recomputes over the
// group's other rows, against the boxed one-row removal.
func TestRankFastExtremumParity(t *testing.T) {
	for _, aggSQL := range []string{"min(v)", "max(v)", "max(DISTINCT v)"} {
		res := scorerResult(t, 300, aggSQL)
		suspect := res.AllRows()
		metric := errmetric.NotEqual{C: 1}
		an, err := Rank(res, suspect, 0, metric, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range an.Influences {
			epsWithout, err := EpsWithoutRows(res, suspect, 0, metric, []int{ti.Row})
			if err != nil {
				t.Fatal(err)
			}
			if want := an.Eps - epsWithout; !floatsEqual(want, ti.Delta) {
				t.Fatalf("%s row %d: delta=%g want %g", aggSQL, ti.Row, ti.Delta, want)
			}
		}
	}
}

// TestEpsWithoutBitsZeroAlloc pins the per-predicate scoring primitive
// to zero steady-state allocations for algebraic aggregates — the
// property the whole columnar layer exists to provide.
func TestEpsWithoutBitsZeroAlloc(t *testing.T) {
	res := scorerResult(t, 2000, "avg(v)")
	suspect := res.AllRows()
	sc, err := NewScorer(res, suspect, 0, errmetric.TooHigh{C: 90})
	if err != nil {
		t.Fatal(err)
	}
	scratch := sc.NewScratch()
	n := res.Source.NumRows()
	matched := bitset.New(n)
	for r := 0; r < n; r += 3 {
		matched.Set(r)
	}
	sc.EpsWithoutBits(matched, scratch) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.EpsWithoutBits(matched, scratch)
	})
	if allocs != 0 {
		t.Fatalf("EpsWithoutBits allocates %v per run, want 0", allocs)
	}
}

func floatsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	// The float and boxed paths may differ by accumulated rounding.
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func BenchmarkEpsWithoutBits(b *testing.B) {
	res := benchResult(b, 100_000)
	suspect := res.AllRows()
	sc, err := NewScorer(res, suspect, 0, errmetric.TooHigh{C: 100})
	if err != nil {
		b.Fatal(err)
	}
	scratch := sc.NewScratch()
	n := res.Source.NumRows()
	removed := make([]int, 0, 1000)
	for r := 0; r < n; r += 100 {
		removed = append(removed, r)
	}
	matched := bitset.FromRows(n, removed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.EpsWithoutBits(matched, scratch)
	}
}
