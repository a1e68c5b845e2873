package influence

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// buildResult runs an agg-per-group query over the given (group, value)
// rows; a NaN value is NULL.
func buildResult(t *testing.T, agg string, rows [][2]float64) *exec.Result {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	var vals [][]engine.Value
	for _, r := range rows {
		v := engine.NewFloat(r[1])
		if math.IsNaN(r[1]) {
			v = engine.Null
		}
		vals = append(vals, []engine.Value{engine.NewInt(int64(r[0])), v})
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := testgen.Query(t.Context(), db, "SELECT k, "+agg+"(v) AS a FROM t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRankAvgAnalytic(t *testing.T) {
	// Group 0: values 10, 10, 100 → avg 40. Metric TooHigh{C: 20}: ε=20.
	res := buildResult(t, "avg", [][2]float64{{0, 10}, {0, 10}, {0, 100}})
	an, err := RankCtx(t.Context(), res, []int{0}, 0, errmetric.TooHigh{C: 20})
	if err != nil {
		t.Fatal(err)
	}
	if an.Eps != 20 {
		t.Fatalf("eps: %v", an.Eps)
	}
	// Removing the 100: avg(10,10)=10 → ε'=0, delta=20.
	// Removing a 10: avg(10,100)=55 → ε'=35, delta=-15.
	// Influences are in F (row) order.
	for i, want := range []float64{-15, -15, 20} {
		if ti := an.Influences[i]; ti.Row != i || math.Abs(ti.Delta-want) > 1e-9 {
			t.Errorf("influence %d: %+v, want delta %g", i, ti, want)
		}
	}
	top := an.TopRows(0)
	if len(top) != 1 || top[0] != 2 {
		t.Errorf("TopRows: %v", top)
	}
}

func TestRankMultiGroup(t *testing.T) {
	// Two suspect groups; sum metric.
	res := buildResult(t, "sum", [][2]float64{{0, 5}, {0, -8}, {1, -3}, {1, 1}})
	an, err := RankCtx(t.Context(), res, []int{0, 1}, 0, errmetric.TooLow{C: 0})
	if err != nil {
		t.Fatal(err)
	}
	// sums: g0 = -3, g1 = -2 → ε = 5.
	if an.Eps != 5 {
		t.Fatalf("eps: %v", an.Eps)
	}
	// Removing row 1 (-8): g0 = 5 → ε = 2; delta = 3.
	if top := an.TopRows(1); len(top) != 1 || top[0] != 1 || math.Abs(deltaOf(an, 1)-3) > 1e-9 {
		t.Errorf("top: %v, delta %g", top, deltaOf(an, 1))
	}
	if len(an.F) != 4 {
		t.Errorf("F: %v", an.F)
	}
}

// deltaOf returns the influence of source row row (0 outside the
// lineage).
func deltaOf(an *Analysis, row int) float64 {
	for _, ti := range an.Influences {
		if ti.Row == row {
			return ti.Delta
		}
	}
	return 0
}

// Property: for every aggregate, the LOO delta matches re-running the
// query without the tuple.
func TestLOOMatchesRequery(t *testing.T) {
	for _, aggName := range []string{"avg", "sum", "stddev", "min", "max", "count", "median"} {
		aggName := aggName
		t.Run(aggName, func(t *testing.T) {
			f := func(raw []int8, pick uint8) bool {
				if len(raw) < 3 {
					return true
				}
				rows := make([][2]float64, len(raw))
				for i, r := range raw {
					rows[i] = [2]float64{0, float64(r)}
				}
				res := buildResult(t, aggName, rows)
				metric := errmetric.NotEqual{C: 1}
				an, err := RankCtx(t.Context(), res, []int{0}, 0, metric)
				if err != nil {
					return false
				}
				idx := int(pick) % len(rows)
				// Brute force: rebuild without row idx.
				rest := append(append([][2]float64(nil), rows[:idx]...), rows[idx+1:]...)
				res2 := buildResult(t, aggName, rest)
				var after float64
				if v, ok := res2.AggFloat(0, 0); ok {
					after = errmetric.Eval(metric, []float64{v})
				} else {
					after = errmetric.Eval(metric, nil)
				}
				wantDelta := an.Eps - after
				return math.Abs(deltaOf(an, idx)-wantDelta) < 1e-6*math.Max(1, math.Abs(wantDelta))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEpsWithoutRowsMatchesRequery(t *testing.T) {
	f := func(raw []int8, mask uint16) bool {
		if len(raw) < 3 {
			return true
		}
		rows := make([][2]float64, len(raw))
		for i, r := range raw {
			rows[i] = [2]float64{float64(i % 2), float64(r)}
		}
		res := buildResult(t, "avg", rows)
		suspects := allGroups(res)
		metric := errmetric.TooHigh{C: 0}

		var removed []int
		var kept [][2]float64
		for i, r := range rows {
			if mask&(1<<(i%16)) != 0 {
				removed = append(removed, i)
			} else {
				kept = append(kept, r)
			}
		}
		got, err := EpsWithoutRows(res, suspects, 0, metric, removed)
		if err != nil {
			return false
		}
		// Brute force.
		var vals []float64
		byGroup := map[int][]float64{}
		for _, r := range kept {
			byGroup[int(r[0])] = append(byGroup[int(r[0])], r[1])
		}
		// Match original group order: groups sorted by key (0 then 1),
		// but only groups that existed originally count; empty ones are
		// NaN (ignored by the metric).
		for gi := 0; gi < res.NumRows(); gi++ {
			key := int(res.Table.Value(gi, 0).Int())
			gvals := byGroup[key]
			if len(gvals) == 0 {
				continue
			}
			var sum float64
			for _, v := range gvals {
				sum += v
			}
			vals = append(vals, sum/float64(len(gvals)))
		}
		want := errmetric.Eval(metric, vals)
		return math.Abs(got-want) < 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopQuantileRows(t *testing.T) {
	res := buildResult(t, "avg", [][2]float64{{0, 0}, {0, 0}, {0, 100}, {0, 90}})
	an, err := RankCtx(t.Context(), res, []int{0}, 0, errmetric.TooHigh{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := an.TopQuantileRows(0.5)
	// The two large values dominate; the zeros have negative delta.
	if len(rows) < 1 || len(rows) > 2 {
		t.Errorf("quantile rows: %v", rows)
	}
	for _, r := range rows {
		if r != 2 && r != 3 {
			t.Errorf("unexpected quantile row %d", r)
		}
	}
}

// topOracle is the two readers as they were while the LOO pass sorted
// every influence: one stable sort by descending δ of the F-ordered list,
// then a walk from the top. A NaN δ has no place in that order; the
// readers pin it as never selected, so the oracle drops it first.
func topOracle(infs []TupleInfluence, q float64, k int) (quantile, topK []int) {
	var sorted []TupleInfluence
	for _, ti := range infs {
		if !math.IsNaN(ti.Delta) {
			sorted = append(sorted, ti)
		}
	}
	slices.SortStableFunc(sorted, func(a, b TupleInfluence) int {
		switch {
		case a.Delta > b.Delta:
			return -1
		case a.Delta < b.Delta:
			return 1
		}
		return 0
	})
	if len(sorted) > 0 && sorted[0].Delta > 0 {
		threshold := sorted[0].Delta * q
		for _, ti := range sorted {
			if ti.Delta < threshold || ti.Delta <= 0 {
				break
			}
			quantile = append(quantile, ti.Row)
		}
	}
	for _, ti := range sorted {
		if ti.Delta <= 0 {
			break
		}
		topK = append(topK, ti.Row)
		if k > 0 && len(topK) >= k {
			break
		}
	}
	return quantile, topK
}

// TestTopReadersMatchFullSort: TopQuantileRows and TopRows over the
// unsorted (F-ordered) influences answer exactly what a full sort did, on
// random deltas drawn from a small set (ties) with NaN and ±Inf mixed in.
func TestTopReadersMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := []float64{-3, -1, 0, 0.25, 0.5, 1, 1, 2, 4, 4, math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(60)
		if trial%100 == 0 {
			n = 5000
		}
		infs := make([]TupleInfluence, n)
		row := 0
		for i := range infs {
			row += 1 + rng.Intn(3)
			d := pool[rng.Intn(len(pool))]
			if trial%2 == 0 {
				d = pool[rng.Intn(len(pool)-3)] + float64(rng.Intn(4))/8
			}
			infs[i] = TupleInfluence{Row: row, Delta: d}
		}
		an := &Analysis{Influences: infs}
		q := []float64{0.25, 0.5, 0.9, 1}[rng.Intn(4)]
		k := []int{0, 1, 3, 10}[rng.Intn(4)]
		wantQ, wantK := topOracle(infs, q, k)
		if got := an.TopQuantileRows(q); !slices.Equal(got, wantQ) {
			t.Fatalf("trial %d: TopQuantileRows(%g) = %v, want %v", trial, q, got, wantQ)
		}
		if got := an.TopRows(k); !slices.Equal(got, wantK) {
			t.Fatalf("trial %d: TopRows(%d) = %v, want %v", trial, k, got, wantK)
		}
	}
}

// TestTopReadersNeverSelectNaN pins the NaN rule: a NaN δ is neither the
// maximum TopQuantileRows scales by nor a selected row, wherever it sits.
func TestTopReadersNeverSelectNaN(t *testing.T) {
	nan := math.NaN()
	an := &Analysis{Influences: []TupleInfluence{{Row: 0, Delta: nan}, {Row: 1, Delta: 2}, {Row: 2, Delta: 1}, {Row: 3, Delta: nan}}}
	if got := an.TopQuantileRows(0.25); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("TopQuantileRows = %v, want [1 2]", got)
	}
	if got := an.TopRows(0); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("TopRows = %v, want [1 2]", got)
	}
	an = &Analysis{Influences: []TupleInfluence{{Row: 0, Delta: nan}, {Row: 1, Delta: -1}}}
	if got := an.TopQuantileRows(0.25); got != nil {
		t.Errorf("TopQuantileRows with no positive δ = %v, want nil", got)
	}
	if got := an.TopRows(3); len(got) != 0 {
		t.Errorf("TopRows with no positive δ = %v, want none", got)
	}
}

func TestRankErrors(t *testing.T) {
	res := buildResult(t, "avg", [][2]float64{{0, 1}})
	if _, err := RankCtx(t.Context(), res, nil, 0, errmetric.TooHigh{}); err == nil {
		t.Error("empty suspects accepted")
	}
	if _, err := RankCtx(t.Context(), res, []int{0}, 5, errmetric.TooHigh{}); err == nil {
		t.Error("bad ordinal accepted")
	}
	if _, err := RankCtx(t.Context(), res, []int{99}, 0, errmetric.TooHigh{}); err == nil {
		t.Error("out-of-range suspect accepted")
	}
	// The reference scorer checks its selection like NewScorer does: it
	// used to index res.Groups blind and panic.
	for _, suspect := range [][]int{nil, {99}, {-1}} {
		if _, err := EpsWithoutRows(res, suspect, 0, errmetric.TooHigh{}, []int{0}); err == nil {
			t.Errorf("EpsWithoutRows accepted suspects %v", suspect)
		}
	}
	if _, err := EpsWithoutRows(res, []int{0}, 5, errmetric.TooHigh{}, nil); err == nil {
		t.Error("EpsWithoutRows accepted a bad ordinal")
	}
}

// allGroups returns every output row of res, 0..NumRows-1: every group
// a suspect.
func allGroups(res *exec.Result) []int {
	out := make([]int, res.NumRows())
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRankAdvancedCtxShares: over an advanced result the analysis shares
// the previous ranking exactly when the suspect groups are the same and
// none grew; otherwise it is the LOO pass over the advanced scorer. The
// Debug carry's differential generator (internal/core) holds every
// carried pass to a fresh oracle.
func TestRankAdvancedCtxShares(t *testing.T) {
	res := buildResult(t, "sum", [][2]float64{{0, 1}, {0, 2}, {0, 30}, {1, 4}, {1, 5}})
	metric := errmetric.TooHigh{C: 10}
	prev, err := RankCtx(t.Context(), res, []int{0}, 0, metric)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		k       int64 // the appended row's group
		suspect int
		shared  bool
	}{{2, 0, true}, {0, 0, false}, {2, 1, false}} {
		grown, err := res.Source.AppendBatch([][]engine.Value{{engine.NewInt(step.k), engine.NewFloat(7)}})
		if err != nil {
			t.Fatal(err)
		}
		if res, err = exec.AdvanceCtx(t.Context(), res, grown); err != nil {
			t.Fatal(err)
		}
		sc, err := NewScorer(res, []int{step.suspect}, 0, metric)
		if err != nil {
			t.Fatal(err)
		}
		an, err := RankAdvancedCtx(t.Context(), prev, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rankFast(t.Context(), sc)
		if shared := &an.Influences[0] == &prev.Influences[0]; shared != step.shared || an.Scorer != sc ||
			an.Eps != want.Eps || !slices.Equal(an.F, want.F) || !slices.Equal(an.Influences, want.Influences) {
			t.Fatalf("step %d: shared %v, want %v; analysis %+v, LOO pass %+v", i, shared, step.shared, an, want)
		}
		prev = an
	}
}
