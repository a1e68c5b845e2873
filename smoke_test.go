package repro_test

// Perf smoke tests: cheap pins on the scoring hot path that run inside
// plain `go test ./...` (tier-1), so a regression that reintroduces
// per-tuple boxing or per-predicate map churn fails CI instead of only
// showing up in -bench output. The full numbers live in bench_test.go
// and `make bench`.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/influence"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// TestInfluenceAllocSmoke pins the leave-one-out pass to a small,
// |F|-independent allocation budget. Before the columnar fast path this
// pass allocated ~6 per lineage tuple (boxed argument evaluation plus
// metric scratch) — about 120k allocations at this scale.
func TestInfluenceAllocSmoke(t *testing.T) {
	e := intelBench(t, 20_000)
	warm, err := influence.RankCtx(t.Context(), e.res, e.suspect, 0, errmetric.TooHigh{C: 70})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.F) == 0 {
		t.Fatal("empty lineage")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := influence.RankCtx(t.Context(), e.res, e.suspect, 0, errmetric.TooHigh{C: 70}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("influence.RankCtx allocates %.0f per run; the columnar path budget is 1000", allocs)
	}
}

// TestWindowQueryAllocSmoke pins the steady-state vectorized scan of
// the Figure 4 window query to a small allocation budget, mirroring the
// scorer guards above. Before the vectorized executor this query
// allocated ~5 per scanned row (boxed function-call arguments plus the
// string group key) — about 100k allocations at this scale; the
// vectorized scan's allocations are per *group*, not per row.
func TestWindowQueryAllocSmoke(t *testing.T) {
	e := intelBench(t, 20_000)
	// Warm up once, then measure the steady state.
	res, err := testgen.Query(t.Context(), e.db, datasets.IntelWindowSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Vectorized {
		t.Fatalf("window query did not take the vectorized pipeline: %+v", res.Plan)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := testgen.Query(t.Context(), e.db, datasets.IntelWindowSQL); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2500 {
		t.Errorf("window query allocates %.0f per run; the vectorized scan budget is 2500", allocs)
	}
}

// TestOutOfCoreQueryAllocSmoke pins what out-of-core serving may cost in
// allocation: the benchmark's `selective` and `grouped` statements over
// a faultable 6-segment table, its working set of typed chunks resident
// in the pool, allocate no more than twice what they allocate over the
// same table behind an uncapped pool, where every chunk stays cached
// after the first run. Before every production read went typed the
// ratios were 1 000× and 25× — boxGroupKeys and materialize decoded whole
// segments into 40-byte Values to read one row per group, and the pool
// holds a third of those — so a boxed decode cannot creep back
// unnoticed.
func TestOutOfCoreQueryAllocSmoke(t *testing.T) {
	const segBits = 12
	fs := vfstest.NewMemFS()
	opts := func(cacheBytes int64) store.Options {
		return store.Options{FS: fs, MaxResidentBytes: cacheBytes, Logf: func(string, ...any) {}}
	}
	st, err := store.Open("d", opts(0))
	if err != nil {
		t.Fatal(err)
	}
	readings, _ := datasets.Intel(datasets.IntelConfig{Rows: 6*(1<<segBits) + 500, Seed: 7})
	if err := st.CreateTable("readings", readings.Schema(), segBits); err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, readings.NumRows())
	for r := range rows {
		rows[r] = readings.Row(r)
	}
	if _, err := st.Append("readings", rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB holds the statements' typed chunks (two columns × six
	// segments × 32 KiB) and a third of the same chunks boxed.
	allocated := func(cacheBytes int64, sql string) uint64 {
		db, err := store.Open("d", opts(cacheBytes))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		run := func() {
			if res, err := testgen.Query(t.Context(), db.Eng(), sql); err != nil || res.NumRows() < 6 { // groups born in every segment
				t.Fatalf("%v, %d rows", err, res.NumRows())
			}
		}
		run() // clause masks, pool
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for shape, sql := range map[string]string{
		"selective": "SELECT bucket(epoch(ts), 600) AS w, avg(temperature) AS avg_temp, count(*) AS n FROM readings WHERE moteid = 17 AND temperature > 50 GROUP BY bucket(epoch(ts), 600) ORDER BY w",
		"grouped":   "SELECT bucket(epoch(ts), 600) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 600) ORDER BY w",
	} {
		resident, outOfCore := allocated(0, sql), allocated(1<<20, sql)
		t.Logf("%s: resident %d, out of core %d", shape, resident, outOfCore)
		if outOfCore > 2*resident {
			t.Errorf("%s: %d bytes allocated per query out of core, %d resident; the budget is 2×", shape, outOfCore, resident)
		}
	}
}

// TestDebugSmoke runs the full pipeline end to end at reduced scale and
// checks it still produces explanations — the bench-shaped guard that
// keeps BenchmarkFigure6RankedPredicates meaningful in short mode.
func TestDebugSmoke(t *testing.T) {
	e := intelBench(t, 20_000)
	dr, err := core.Debug(core.DebugRequest{
		Result: e.res, AggItem: -1, Suspect: e.suspect,
		Examples: e.dprime, Metric: errmetric.TooHigh{C: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Explanations) == 0 {
		t.Fatal("Debug produced no explanations")
	}
}
