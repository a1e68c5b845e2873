package influence

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/testgen"
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
	res, err := testgen.Query(t.Context(), db, "SELECT k, "+aggSQL+" FROM t GROUP BY k")
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
		suspect := allGroups(res)
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
	res, err := testgen.Query(t.Context(), db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	metric := errmetric.TooHigh{C: 90}
	for _, suspect := range [][]int{{3}, {0, 6}, allGroups(res)[100:400], allGroups(res)} {
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
		if !floatsEqual(sc.eps, want) {
			t.Errorf("%d suspect groups: Eps %g, want %g", len(suspect), sc.eps, want)
		}
	}
}

// looMetrics are every registry metric — zscore also at Std 0 and below,
// where its term is 0 — and one user-defined max metric, at references
// inside scorerResult's value range (0–199).
var looMetrics = []errmetric.Metric{
	errmetric.TooHigh{C: 90}, errmetric.TooLow{C: 110}, errmetric.NotEqual{C: 100},
	errmetric.Diff{C: 90}, errmetric.ZScore{Mean: 100, Std: 3, K: 1},
	errmetric.ZScore{Mean: 100, Std: 0, K: 1}, errmetric.ZScore{Mean: 100, Std: -2, K: 1},
	worstBelow{C: 110},
}

// worstBelow is a user-defined max metric: the largest shortfall under C.
type worstBelow struct{ C float64 }

func (worstBelow) Name() string               { return "worstbelow" }
func (m worstBelow) Term(v float64) float64   { return errmetric.TooLow(m).Term(v) }
func (worstBelow) Combine() errmetric.Combine { return errmetric.Max }
func (m worstBelow) String() string           { return fmt.Sprintf("worstbelow(c=%g)", m.C) }

// looDelta is the reference δ of leaving row out of the group at suspect
// position pos, defined from EpsWithoutRows as rankFast defines it: under
// a sum metric the group's term before less its term after, under a max
// metric ε less the larger of the other positions' best term and the
// group's term after. ε over one group is that group's term.
func looDelta(t *testing.T, res *exec.Result, suspect []int, ord int, m errmetric.Metric, pos, row int) float64 {
	t.Helper()
	eps := func(suspect, rows []int) float64 {
		if len(suspect) == 0 {
			return 0
		}
		e, err := EpsWithoutRows(res, suspect, ord, m, rows)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	after := eps(suspect[pos:pos+1], []int{row})
	if m.Combine() != errmetric.Max {
		return eps(suspect[pos:pos+1], nil) - after
	}
	others := slices.Delete(slices.Clone(suspect), pos, pos+1)
	return eps(suspect, nil) - max(eps(others, nil), after)
}

// sameBits is float equality bit for bit, NaN equal to NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkLOOParity ranks suspect under every looMetrics metric and pins
// every influence, bit for bit, to looDelta at the first position that
// lists its group — the position the LOO pass charges a tuple to.
func checkLOOParity(t *testing.T, label string, res *exec.Result, suspect []int) {
	t.Helper()
	for _, m := range looMetrics {
		an, err := RankCtx(t.Context(), res, suspect, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Influences) != len(an.F) {
			t.Fatalf("%s %s: %d influences for %d rows of F", label, m, len(an.Influences), len(an.F))
		}
		for _, ti := range an.Influences {
			want := looDelta(t, res, suspect, 0, m, slices.Index(suspect, ti.GroupRow), ti.Row)
			if !sameBits(want, ti.Delta) {
				t.Fatalf("%s %s row %d: delta=%g want %g", label, m, ti.Row, ti.Delta, want)
			}
		}
	}
}

// TestRankFastParity checks every LOO delta of the columnar Rank path
// against the boxed one-row removal, under every metric.
func TestRankFastParity(t *testing.T) {
	res := scorerResult(t, 400, "avg(v)")
	suspect := allGroups(res)
	checkLOOParity(t, "avg(v)", res, suspect)
	an, err := RankCtx(t.Context(), res, suspect, 0, errmetric.TooHigh{C: 90})
	if err != nil {
		t.Fatal(err)
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
		checkLOOParity(t, aggSQL, res, allGroups(res))
	}
}

// TestRankFastEdgeParity pins the LOO pass's corner cases to the
// reference: group 0's one non-NULL row left out (its aggregate goes NULL
// and its term to 0), groups 1 and 2 tied for the top term (diff's max
// keeps the other's), and a suspect listed twice (its tuples are charged
// to the first listing; the second keeps the group's term).
func TestRankFastEdgeParity(t *testing.T) {
	nan := math.NaN()
	rows := [][2]float64{{0, 150}, {0, nan}, {0, nan}, {1, 140}, {1, 160}, {2, 130}, {2, 170}, {3, 20}, {3, 40}, {3, nan}}
	for _, aggSQL := range []string{"avg", "sum", "min", "max", "count"} {
		res := buildResult(t, aggSQL, rows)
		for _, suspect := range [][]int{{0, 1, 2, 3}, {1, 2}, {2, 0, 2}, {1, 3, 1, 2}, {0}} {
			checkLOOParity(t, fmt.Sprintf("%s(v) suspect %v", aggSQL, suspect), res, suspect)
		}
	}
	// The cases are reached: under avg, leaving out row 0 takes group 0's
	// term of 60 to 0; under diff, groups 1 and 2 tie at 60, so raising
	// one (row 3 out) costs 10 and lowering one (row 4 out) gains nothing.
	res := buildResult(t, "avg", rows)
	for _, c := range []struct {
		m       errmetric.Metric
		suspect []int
		row     int
		want    float64
	}{
		{errmetric.TooHigh{C: 90}, []int{0, 1, 2, 3}, 0, 60},
		{errmetric.Diff{C: 90}, []int{1, 2}, 3, -10},
		{errmetric.Diff{C: 90}, []int{1, 2}, 4, 0},
	} {
		an, err := RankCtx(t.Context(), res, c.suspect, 0, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := deltaOf(an, c.row); got != c.want {
			t.Errorf("%s suspect %v row %d: delta %g, want %g", c.m, c.suspect, c.row, got, c.want)
		}
	}
}

// countingMetric counts its metric's Term calls.
type countingMetric struct {
	errmetric.Metric
	calls *atomic.Int64
}

func (m countingMetric) Term(v float64) float64 {
	m.calls.Add(1)
	return m.Metric.Term(v)
}

// TestRankTermCallsLinear pins the LOO pass to O(|F|) work: ranking 64
// groups makes at most 2·(|F| + |S|) Term calls under a sum and a max
// metric — one per tuple and one per group for ε, and one more per group
// for the terms δ is read against — where re-evaluating ε per tuple
// would make |F|·|S|.
func TestRankTermCallsLinear(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	var rows [][]engine.Value
	for i := range 64 * 50 {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i % 64)), engine.NewFloat(float64(i % 193))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := testgen.Query(t.Context(), db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	suspect := allGroups(res)
	for _, m := range []errmetric.Metric{errmetric.TooHigh{C: 90}, errmetric.Diff{C: 90}} {
		var calls atomic.Int64
		an, err := RankCtx(t.Context(), res, suspect, 0, countingMetric{m, &calls})
		if err != nil {
			t.Fatal(err)
		}
		if limit := 2 * int64(len(an.F)+len(suspect)); calls.Load() > limit {
			t.Errorf("%s: %d Term calls ranking |F| = %d over |S| = %d, want at most %d", m, calls.Load(), len(an.F), len(suspect), limit)
		}
	}
}

// TestEpsWithoutBitsZeroAlloc pins the per-predicate scoring primitive
// to zero steady-state allocations for algebraic aggregates — the
// property the whole columnar layer exists to provide.
func TestEpsWithoutBitsZeroAlloc(t *testing.T) {
	res := scorerResult(t, 2000, "avg(v)")
	suspect := allGroups(res)
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
	suspect := allGroups(res)
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
