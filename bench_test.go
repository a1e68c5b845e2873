package repro_test

// Figure/experiment benchmarks: one bench per paper artifact plus scaling
// benches, under testing.B so regressions are visible in -bench output
// (what the pipeline answers, as opposed to how fast, is internal/core's
// quality table):
//
//	BenchmarkFigure4WindowQuery      — F4: the 30-min window query (Intel)
//	BenchmarkFigure4ZoomLineage      — F4z: lineage fetch of suspect windows
//	BenchmarkFigure6RankedPredicates — F6: the full Debug pipeline (Intel); …Fresh re-runs the query too
//	BenchmarkFigure7FECDaily         — F7: daily donation totals (FEC)
//	BenchmarkWalkthroughFEC          — W1: Debug + clean on FEC
//	BenchmarkPipelineVsBaselines     — E1: ours vs top-k influence
//	BenchmarkDebugScaling/*          — E2: Debug vs |D|
//	BenchmarkInfluenceLOO            — E5: leave-one-out pass alone

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/testgen"
)

// intelEnv caches one synthetic trace + executed query per size so the
// benches measure the operation, not the generator.
type intelEnv struct {
	db      *engine.DB
	res     *exec.Result
	suspect []int
	dprime  []int
}

var intelCache = map[int]*intelEnv{}

func intelBench(b testing.TB, rows int) *intelEnv {
	b.Helper()
	if e, ok := intelCache[rows]; ok {
		return e
	}
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: rows, Seed: 7})
	res, err := testgen.Query(b.Context(), db, datasets.IntelWindowSQL)
	if err != nil {
		b.Fatal(err)
	}
	suspect, err := core.SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		b.Fatal(err)
	}
	dprime, err := core.ExamplesWhereCtx(b.Context(), res, suspect, "temperature > 100")
	if err != nil {
		b.Fatal(err)
	}
	e := &intelEnv{db: db, res: res, suspect: suspect, dprime: dprime}
	intelCache[rows] = e
	return e
}

type fecEnv struct {
	db      *engine.DB
	res     *exec.Result
	suspect []int
	dprime  []int
}

var fecCache = map[int]*fecEnv{}

func fecBench(b testing.TB, rows int) *fecEnv {
	b.Helper()
	if e, ok := fecCache[rows]; ok {
		return e
	}
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: rows, Seed: 7})
	res, err := testgen.Query(b.Context(), db, datasets.FECDailySQL("McCain"))
	if err != nil {
		b.Fatal(err)
	}
	suspect, err := core.SuspectWhere(res, "total", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() < 0
	})
	if err != nil {
		b.Fatal(err)
	}
	dprime, err := core.ExamplesWhereCtx(b.Context(), res, suspect, "amount < 0")
	if err != nil {
		b.Fatal(err)
	}
	e := &fecEnv{db: db, res: res, suspect: suspect, dprime: dprime}
	fecCache[rows] = e
	return e
}

// BenchmarkFigure4WindowQuery measures the Figure 4 aggregate query
// (avg + stddev per 30-minute window) over the 100k-row Intel trace.
func BenchmarkFigure4WindowQuery(b *testing.B) {
	e := intelBench(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testgen.Query(b.Context(), e.db, datasets.IntelWindowSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4ZoomLineage measures fetching the raw tuples of the
// highlighted windows (the zoom interaction).
func BenchmarkFigure4ZoomLineage(b *testing.B) {
	e := intelBench(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := e.res.Lineage(e.suspect); len(got) == 0 {
			b.Fatal("empty lineage")
		}
	}
}

// BenchmarkFigure6RankedPredicates measures the full Debug pipeline on
// the Intel sensor query — the paper's headline interaction — over one
// reused result, whose argument view and lineage bitsets are built once.
func BenchmarkFigure6RankedPredicates(b *testing.B) {
	e := intelBench(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figure6Debug(b, e, e.res)
	}
}

// BenchmarkFigure6RankedPredicatesFresh runs the query and then Debug
// each iteration: what every new dashboard session pays, argument-view
// build included.
func BenchmarkFigure6RankedPredicatesFresh(b *testing.B) {
	e := intelBench(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := testgen.Query(b.Context(), e.db, datasets.IntelWindowSQL)
		if err != nil {
			b.Fatal(err)
		}
		figure6Debug(b, e, res)
	}
}

func figure6Debug(b *testing.B, e *intelEnv, res *exec.Result) {
	dr, err := core.Debug(core.DebugRequest{
		Result: res, AggItem: -1, Suspect: e.suspect,
		Examples: e.dprime, Metric: errmetric.TooHigh{C: 70},
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(dr.Explanations) == 0 {
		b.Fatal("no explanations")
	}
}

// BenchmarkFigure7FECDaily measures the Figure 7 query (sum per day).
func BenchmarkFigure7FECDaily(b *testing.B) {
	e := fecBench(b, 150_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testgen.Query(b.Context(), e.db, datasets.FECDailySQL("McCain")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkthroughFEC measures the §3.2 walkthrough: Debug the
// negative spike and clean with the top predicate.
func BenchmarkWalkthroughFEC(b *testing.B) {
	e := fecBench(b, 150_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dr, err := core.Debug(core.DebugRequest{
			Result: e.res, AggItem: -1, Suspect: e.suspect,
			Examples: e.dprime, Metric: errmetric.TooLow{C: 0},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.CleanAndRequery(e.res, dr.Explanations[0].Pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineVsBaselines compares one Debug call against the
// top-k influence baseline (E1's latency dimension).
func BenchmarkPipelineVsBaselines(b *testing.B) {
	e := fecBench(b, 150_000)
	b.Run("ranked-provenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Debug(core.DebugRequest{
				Result: e.res, AggItem: -1, Suspect: e.suspect,
				Examples: e.dprime, Metric: errmetric.TooLow{C: 0},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk-influence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.TopKInfluence(e.res, e.suspect, 0, errmetric.TooLow{C: 0}, 400); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-provenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := baseline.FullProvenance(e.res, e.suspect); len(got) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkDebugScaling measures Debug wall time against dataset size
// (E2), up to the paper's 2.3M Intel readings (skipped in -short, as the
// full-scale generators are). The paper's claim: ~linear in |F|, as the
// leave-one-out pass is O(|F|) — removable aggregates and one metric
// term per tuple — plus one group scan per tuple that removes the last
// copy of a min or max.
func BenchmarkDebugScaling(b *testing.B) {
	for _, rows := range []int{25_000, 50_000, 100_000, 200_000, 400_000, 2_300_000} {
		rows := rows
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			if rows > 200_000 && testing.Short() {
				b.Skip("full-scale trace generation is slow; skipped in -short")
			}
			e := intelBench(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Debug(core.DebugRequest{
					Result: e.res, AggItem: -1, Suspect: e.suspect,
					Examples: e.dprime, Metric: errmetric.TooHigh{C: 70},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInfluenceLOO isolates the preprocessor's leave-one-out pass
// (E5): O(|F|) with removable aggregates and one metric term per tuple,
// plus one group scan per tuple that removes the last copy of a min or
// max.
func BenchmarkInfluenceLOO(b *testing.B) {
	e := intelBench(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := influence.RankCtx(b.Context(), e.res, e.suspect, 0, errmetric.TooHigh{C: 70}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingAppendQuery measures the continuous-monitoring
// cycle — append one batch, re-run the Figure 4 window query — at
// several base table sizes. The incremental path (copy-on-write
// AppendBatch + exec.AdvanceCtx folding in only the appended rows, with
// clause masks extending by suffix decode) must cost
// O(batch) per cycle regardless of table size; the rebuild variant
// re-runs the full query after each append and scales O(table), the
// cost every streaming re-query paid before incremental maintenance.
func BenchmarkStreamingAppendQuery(b *testing.B) {
	const batchSize = 1_000
	const poolBatches = 100
	stmt, err := sqlparse.Parse(datasets.IntelWindowSQL)
	if err != nil {
		b.Fatal(err)
	}
	for _, base := range []int{50_000, 100_000, 200_000} {
		full, _ := datasets.Intel(datasets.IntelConfig{Rows: base + poolBatches*batchSize, Seed: 7})
		pool := make([][][]engine.Value, poolBatches)
		for bi := range pool {
			rows := make([][]engine.Value, batchSize)
			for r := range rows {
				rows[r] = full.Row(base + bi*batchSize + r)
			}
			pool[bi] = rows
		}
		setup := func(b *testing.B) (*engine.Table, *exec.Result) {
			ids := make([]int, base)
			for i := range ids {
				ids[i] = i
			}
			tbl := full.Select(ids)
			res, err := exec.Run(b.Context(), tbl, stmt)
			if err != nil {
				b.Fatal(err)
			}
			return tbl, res
		}
		for _, mode := range []string{"incremental", "rebuild"} {
			mode := mode
			b.Run(fmt.Sprintf("%s/base=%d", mode, base), func(b *testing.B) {
				tbl, res := setup(b)
				bi := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bi == len(pool) {
						// Pool exhausted: restart from the base table so
						// the measured table size stays near base.
						b.StopTimer()
						tbl, res = setup(b)
						bi = 0
						b.StartTimer()
					}
					grown, err := tbl.AppendBatch(pool[bi])
					if err != nil {
						b.Fatal(err)
					}
					bi++
					if mode == "incremental" {
						res, err = exec.AdvanceCtx(b.Context(), res, grown)
						if err != nil {
							b.Fatal(err)
						}
						if !res.Plan.Incremental {
							b.Fatalf("advance fell back: %+v", res.Plan)
						}
					} else {
						res, err = exec.Run(b.Context(), grown, stmt)
						if err != nil {
							b.Fatal(err)
						}
					}
					tbl = grown
				}
			})
		}
	}
}

// BenchmarkStreamingDebug measures the monitoring loop's debug half:
// append a 1k batch, advance the query result, and re-Debug — the
// incremental path (core.DebugAdvance carrying the scorer, lineage
// bitsets, argument views, clause masks and scored candidates) against
// the full re-Debug baseline (fresh run + fresh Debug over the grown
// table). Incremental cost should stay roughly flat across base sizes
// while the baseline grows with the table. The examples arm is the
// incremental one as bench/'s stream_monitor drives /api/debug: the
// suspects stay the base table's closed high-std windows, whose lineage
// no batch grows, and D' is selected by ExamplesWhere each step, then
// cleaned by the carried pass.
func BenchmarkStreamingDebug(b *testing.B) {
	const batchSize = 1_000
	const poolBatches = 60
	stmt, err := sqlparse.Parse(datasets.IntelWindowSQL)
	if err != nil {
		b.Fatal(err)
	}
	// C=0 keeps ε positive at every base size (window averages are
	// always positive), so the pipeline never bails with "nothing to
	// explain" — this is a throughput benchmark, not an accuracy one.
	metric := errmetric.TooHigh{C: 0}
	// Suspect rule: the 8 highest-std windows. A fixed suspect count
	// models the monitoring scenario (a handful of anomalous windows
	// under investigation while the trace keeps growing); since the
	// Intel trace grows by adding windows — not rows per window — the
	// debugged lineage stays roughly constant and the measured growth
	// isolates the per-table costs the carry is supposed to remove.
	suspectsOf := func(res *exec.Result, windows int) []int {
		ci := res.Table.Schema().ColIndex("std_temp")
		type ws struct {
			row int
			std float64
		}
		var wins []ws
		for r := 0; r < windows; r++ {
			if v := res.Table.Value(r, ci); !v.IsNull() {
				wins = append(wins, ws{r, v.Float()})
			}
		}
		if len(wins) == 0 {
			b.Fatal("no std windows")
		}
		sort.Slice(wins, func(i, j int) bool {
			if wins[i].std != wins[j].std {
				return wins[i].std > wins[j].std
			}
			return wins[i].row < wins[j].row
		})
		if len(wins) > 8 {
			wins = wins[:8]
		}
		suspect := make([]int, len(wins))
		for i, w := range wins {
			suspect[i] = w.row
		}
		sort.Ints(suspect)
		return suspect
	}
	for _, base := range []int{50_000, 100_000, 200_000} {
		full, _ := datasets.Intel(datasets.IntelConfig{Rows: base + poolBatches*batchSize, Seed: 7})
		pool := make([][][]engine.Value, poolBatches)
		for bi := range pool {
			rows := make([][]engine.Value, batchSize)
			for r := range rows {
				rows[r] = full.Row(base + bi*batchSize + r)
			}
			pool[bi] = rows
		}
		for _, mode := range []string{"incremental", "examples", "rebuild"} {
			mode := mode
			// request is what each step debugs; the examples arm picks its
			// suspects once (output rows are append-stable under ORDER BY
			// w30) and selects D' the way handleDebug does.
			var closed []int
			request := func(res *exec.Result) core.DebugRequest {
				if mode != "examples" {
					return core.DebugRequest{Result: res, AggItem: -1, Suspect: suspectsOf(res, res.NumRows()), Metric: metric}
				}
				if closed == nil {
					closed = suspectsOf(res, res.NumRows()-1) // the last window is still filling
				}
				examples, err := core.ExamplesWhereCtx(b.Context(), res, closed, "temperature > 100")
				if err != nil {
					b.Fatal(err)
				}
				return core.DebugRequest{Result: res, AggItem: -1, Suspect: closed, Examples: examples, Metric: metric}
			}
			setup := func(b *testing.B) (*engine.Table, *exec.Result, *core.DebugResult) {
				ids := make([]int, base)
				for i := range ids {
					ids[i] = i
				}
				tbl := full.Select(ids)
				res, err := exec.Run(b.Context(), tbl, stmt)
				if err != nil {
					b.Fatal(err)
				}
				dbg, err := core.Debug(request(res))
				if err != nil {
					b.Fatal(err)
				}
				return tbl, res, dbg
			}
			b.Run(fmt.Sprintf("%s/base=%d", mode, base), func(b *testing.B) {
				tbl, res, dbg := setup(b)
				bi := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bi == len(pool) {
						// Pool exhausted: restart from the base table so
						// the measured table size stays near base.
						b.StopTimer()
						tbl, res, dbg = setup(b)
						bi = 0
						b.StartTimer()
					}
					grown, err := tbl.AppendBatch(pool[bi])
					if err != nil {
						b.Fatal(err)
					}
					bi++
					if mode != "rebuild" {
						res, err = exec.AdvanceCtx(b.Context(), res, grown)
						if err != nil {
							b.Fatal(err)
						}
						dbg, err = core.DebugAdvance(dbg, request(res))
						if err != nil {
							b.Fatal(err)
						}
						// A new question or drift runs a full Debug by design;
						// any other fallback means the carried state broke.
						if f := dbg.Plan.Fallback; f != "" && !strings.HasPrefix(f, "drift ") && !strings.HasSuffix(f, "selection changed") {
							b.Fatalf("debug advance fell back: %+v", dbg.Plan)
						}
					} else {
						res, err = exec.Run(b.Context(), grown, stmt)
						if err != nil {
							b.Fatal(err)
						}
						dbg, err = core.Debug(request(res))
						if err != nil {
							b.Fatal(err)
						}
					}
					tbl = grown
				}
			})
		}
	}
}

// BenchmarkFullScaleIntel runs the Figure 4 query at the real trace's
// scale (2.3M readings), demonstrating that the synthetic substitute
// (internal/datasets) covers the paper's full data volume.
func BenchmarkFullScaleIntel(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale trace generation is slow; skipped in -short")
	}
	e := intelBench(b, 2_300_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testgen.Query(b.Context(), e.db, datasets.IntelWindowSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentedAppend measures the raw ingest path on the
// segmented store at several base sizes: a batch append touches only
// the tail segment (worst case one tail reallocation bounded by the
// segment size), so per-batch cost must stay flat as the table grows —
// the copy-on-grow cliff the segment refactor removes.
func BenchmarkSegmentedAppend(b *testing.B) {
	const batchSize = 1_000
	const poolBatches = 100
	for _, base := range []int{50_000, 100_000, 200_000} {
		full, _ := datasets.Intel(datasets.IntelConfig{Rows: base + poolBatches*batchSize, Seed: 7})
		pool := make([][][]engine.Value, poolBatches)
		for bi := range pool {
			rows := make([][]engine.Value, batchSize)
			for r := range rows {
				rows[r] = full.Row(base + bi*batchSize + r)
			}
			pool[bi] = rows
		}
		setup := func() *engine.Table {
			ids := make([]int, base)
			for i := range ids {
				ids[i] = i
			}
			return full.Select(ids)
		}
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			tbl := setup()
			bi := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bi == len(pool) {
					b.StopTimer()
					tbl = setup()
					bi = 0
					b.StartTimer()
				}
				grown, err := tbl.AppendBatch(pool[bi])
				if err != nil {
					b.Fatal(err)
				}
				bi++
				tbl = grown
			}
		})
	}
}

// BenchmarkRetention measures the bounded-memory streaming loop:
// append a batch, apply a row-horizon retention policy, advance the
// carried window query. The reported retained_MB / retained_segs
// metrics plateau (bounded RSS) while the stream grows, and the cycle
// cost stays flat — the acceptance numbers for unbounded ingest.
func BenchmarkRetention(b *testing.B) {
	const batchSize = 1_000
	const poolBatches = 200
	const keepRows = 50_000
	stmt, err := sqlparse.Parse(datasets.IntelWindowSQL)
	if err != nil {
		b.Fatal(err)
	}
	full, _ := datasets.Intel(datasets.IntelConfig{Rows: keepRows + poolBatches*batchSize, Seed: 7})
	pool := make([][][]engine.Value, poolBatches)
	for bi := range pool {
		rows := make([][]engine.Value, batchSize)
		for r := range rows {
			rows[r] = full.Row(keepRows + bi*batchSize + r)
		}
		pool[bi] = rows
	}
	// 4Ki-row segments so the horizon advances in useful steps at this
	// scale (the example uses the same geometry).
	setup := func() (*engine.Table, *exec.Result) {
		tbl, err := engine.NewTableSeg("readings", full.Schema(), 12)
		if err != nil {
			b.Fatal(err)
		}
		seed := make([][]engine.Value, keepRows)
		for i := range seed {
			seed[i] = full.Row(i)
		}
		tbl, err = tbl.AppendBatch(seed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.Run(b.Context(), tbl, stmt)
		if err != nil {
			b.Fatal(err)
		}
		return tbl, res
	}
	tbl, res := setup()
	bi := 0
	maxSegs, maxBytes := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bi == len(pool) {
			b.StopTimer()
			tbl, res = setup()
			bi = 0
			b.StartTimer()
		}
		grown, err := tbl.AppendBatch(pool[bi])
		if err != nil {
			b.Fatal(err)
		}
		bi++
		retained, _, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: keepRows})
		if err != nil {
			b.Fatal(err)
		}
		res, err = exec.AdvanceCtx(b.Context(), res, retained)
		if err != nil {
			b.Fatal(err)
		}
		tbl = retained
		if segs, bytes := tbl.MemStats(); true {
			if segs > maxSegs {
				maxSegs = segs
			}
			if bytes > maxBytes {
				maxBytes = bytes
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(maxSegs), "retained_segs")
	b.ReportMetric(float64(maxBytes)/(1<<20), "retained_MB")
}

// BenchmarkDurableAppend prices durability: the same 1k-row batch
// append as BenchmarkSegmentedAppend, but acknowledged through
// internal/store's crash-safe path. mem is the in-RAM PR 5 baseline;
// wal/sync=1 fsyncs the WAL per batch (the acked⇒durable contract); wal/sync=64
// amortizes the fsync over 64 batches (may lose a bounded acked
// suffix, never a torn batch). Two base sizes pin the flatness claim:
// per-batch cost must not grow with what is already on disk.
func BenchmarkDurableAppend(b *testing.B) {
	const batchSize = 1_000
	const poolBatches = 64
	modes := []struct {
		name string
		opts *store.Options // nil = in-memory engine baseline
	}{
		{"mem", nil},
		{"wal-sync=1", &store.Options{SyncEvery: 1}},
		{"wal-sync=64", &store.Options{SyncEvery: 64}},
	}
	for _, base := range []int{50_000, 200_000} {
		full, _ := datasets.Intel(datasets.IntelConfig{Rows: base + poolBatches*batchSize, Seed: 7})
		pool := make([][][]engine.Value, poolBatches)
		for bi := range pool {
			rows := make([][]engine.Value, batchSize)
			for r := range rows {
				rows[r] = full.Row(base + bi*batchSize + r)
			}
			pool[bi] = rows
		}
		baseChunks := func(emit func(rows [][]engine.Value)) {
			const chunk = 8192
			for lo := 0; lo < base; lo += chunk {
				hi := lo + chunk
				if hi > base {
					hi = base
				}
				rows := make([][]engine.Value, 0, hi-lo)
				for r := lo; r < hi; r++ {
					rows = append(rows, full.Row(r))
				}
				emit(rows)
			}
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/base=%d", mode.name, base), func(b *testing.B) {
				var appendBatch func(rows [][]engine.Value)
				if mode.opts == nil {
					tbl, err := engine.NewTableSeg("readings", full.Schema(), engine.DefaultSegmentBits)
					if err != nil {
						b.Fatal(err)
					}
					baseChunks(func(rows [][]engine.Value) {
						if tbl, err = tbl.AppendBatch(rows); err != nil {
							b.Fatal(err)
						}
					})
					appendBatch = func(rows [][]engine.Value) {
						if tbl, err = tbl.AppendBatch(rows); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					opts := *mode.opts
					opts.Logf = func(string, ...any) {}
					st, err := store.Open(b.TempDir(), opts)
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { st.Close() })
					if err := st.CreateTable("readings", full.Schema(), engine.DefaultSegmentBits); err != nil {
						b.Fatal(err)
					}
					baseChunks(func(rows [][]engine.Value) {
						if _, err := st.Append("readings", rows); err != nil {
							b.Fatal(err)
						}
					})
					appendBatch = func(rows [][]engine.Value) {
						if _, err := st.Append("readings", rows); err != nil {
							b.Fatal(err)
						}
					}
				}
				bi := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					appendBatch(pool[bi])
					bi = (bi + 1) % len(pool)
				}
			})
		}
	}
}

// oocBenchFixture builds a durable table of nrows (4096-row segments,
// so point predicates have many segments to prune) and returns its
// directory. Values: k is segment-monotonic (disjoint zone ranges), v
// and w are cheap numerics, s draws from a small dictionary.
func oocBenchFixture(b *testing.B, nrows int) string {
	b.Helper()
	dir := b.TempDir()
	opts := store.Options{SyncEvery: 256, Logf: func(string, ...any) {}}
	st, err := store.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	schema := engine.NewSchema("k", engine.TInt, "v", engine.TFloat, "w", engine.TFloat, "s", engine.TString)
	if err := st.CreateTable("big", schema, 12); err != nil {
		b.Fatal(err)
	}
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for lo := 0; lo < nrows; lo += 4096 {
		rows := make([][]engine.Value, 4096)
		for i := range rows {
			r := lo + i
			rows[i] = []engine.Value{
				engine.NewInt(int64((lo / 4096) * 1000)),
				engine.NewFloat(float64(r%977) * 0.25),
				engine.NewFloat(float64(r%131) * 0.5),
				engine.NewString(strs[r%len(strs)]),
			}
		}
		if _, err := st.Append("big", rows); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func oocOpen(b *testing.B, dir string, cacheBytes int64) (*store.DB, *engine.Table) {
	b.Helper()
	st, err := store.Open(dir, store.Options{SyncEvery: 256, Logf: func(string, ...any) {}, MaxResidentBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	tbl, err := st.Eng().Table("big")
	if err != nil {
		b.Fatal(err)
	}
	return st, tbl
}

// BenchmarkColdScan measures a full aggregation scan over an
// out-of-core table served through a pool ~1/10 its decoded size —
// every iteration re-faults most chunks from disk (cold) — against the
// same table behind an uncapped pool, every chunk cached after the first
// pass ("resident"). The chunks-faulted/resident extras make
// the fault traffic visible in BENCH json.
func BenchmarkColdScan(b *testing.B) {
	const nrows = 98_304 // 24 sealed 4096-row segments
	dir := oocBenchFixture(b, nrows)
	stmt, err := sqlparse.Parse("SELECT s, sum(v) AS a, avg(w) AS m, count(*) AS n FROM big GROUP BY s")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		cache int64
	}{{"resident", 0}, {"cold/cache=256KiB", 256 << 10}} {
		b.Run(mode.name, func(b *testing.B) {
			_, tbl := oocOpen(b, dir, mode.cache)
			var faulted, resident int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(b.Context(), tbl, stmt)
				if err != nil {
					b.Fatal(err)
				}
				faulted += res.Plan.ChunksFaulted
				resident += res.Plan.ChunksResident
			}
			b.SetBytes(nrows)
			b.ReportMetric(float64(faulted)/float64(b.N), "faulted/op")
			b.ReportMetric(float64(resident)/float64(b.N), "resident/op")
		})
	}
}

// BenchmarkZoneMapSkip measures a selective point query over the same
// fixture: k is constant per segment, so the zone maps prove all but
// one segment empty and the scan must skip them without touching disk.
// The bench fails if the skip rate ever drops to half or below — the
// optimization, not just the timing, is pinned.
func BenchmarkZoneMapSkip(b *testing.B) {
	const nrows = 98_304
	const nsegs = nrows / 4096
	dir := oocBenchFixture(b, nrows)
	stmt, err := sqlparse.Parse("SELECT s, sum(v) AS a, count(*) AS n FROM big WHERE k = 11000 GROUP BY s")
	if err != nil {
		b.Fatal(err)
	}
	_, tbl := oocOpen(b, dir, 256<<10)
	var skipped, faulted int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(b.Context(), tbl, stmt)
		if err != nil {
			b.Fatal(err)
		}
		skipped += res.Plan.SegsSkipped
		faulted += res.Plan.ChunksFaulted
	}
	b.SetBytes(nrows)
	skipRate := float64(skipped) / float64(b.N) / float64(nsegs)
	if skipRate <= 0.5 {
		b.Fatalf("zone maps skipped only %.0f%% of %d segments", skipRate*100, nsegs)
	}
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(faulted)/float64(b.N), "faulted/op")
	b.ReportMetric(skipRate*100, "skip%")
}

// BenchmarkSelectiveFilter measures a lowered AND chain whose most
// selective clause sits LAST in source order (temperature > 1000
// matches nothing; the four clauses before it match nearly everything).
// The walker ANDs the five cached clause masks in source order, so
// nothing is skipped: short-circuited/op reads 0 on this shape.
func BenchmarkSelectiveFilter(b *testing.B) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 200_000, Seed: 7})
	stmt, err := sqlparse.Parse(
		"SELECT moteid, avg(temperature) AS t, count(*) AS n FROM readings " +
			"WHERE humidity >= 0 AND light >= 0 AND voltage > 0 AND epoch >= 0 AND temperature > 1000 " +
			"GROUP BY moteid")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shared clause-mask cache: steady-state lowering, not the
	// first decode.
	if _, err := exec.Run(b.Context(), tbl, stmt); err != nil {
		b.Fatal(err)
	}
	var skipped int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(b.Context(), tbl, stmt)
		if err != nil {
			b.Fatal(err)
		}
		skipped += res.Plan.FilterShortCircuited
	}
	b.ReportMetric(float64(skipped)/float64(b.N), "short-circuited/op")
}

// BenchmarkResidualFilter measures partial WHERE lowering on the shape
// it exists for: an AND chain mixing a selective lowerable comparison
// with a conjunct that cannot lower (LIKE over a computed value). The
// comparison lowers to a cached clause mask and the residual is
// interpreted only on its survivors. The bench fails if the residual is
// ever evaluated on more than the comparison's survivors.
func BenchmarkResidualFilter(b *testing.B) {
	tbl, _ := datasets.FEC(datasets.FECConfig{Rows: 200_000, Seed: 7})
	stmt, err := sqlparse.Parse(
		"SELECT state, sum(amount) AS s, count(*) AS n FROM donations " +
			"WHERE amount > 1000 AND lower(city) LIKE 's%' GROUP BY state")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shared clause-mask cache: steady-state lowering, not the
	// first decode.
	if _, err := exec.Run(b.Context(), tbl, stmt); err != nil {
		b.Fatal(err)
	}
	var residualRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(b.Context(), tbl, stmt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan.ResidualConjuncts != 1 || res.Plan.FilterFallback != "" || res.Plan.ResidualRows >= tbl.NumRows()/2 {
			b.Fatalf("residual conjunct not narrowed by the lowered one: %+v", res.Plan)
		}
		residualRows += res.Plan.ResidualRows
	}
	b.ReportMetric(float64(residualRows)/float64(b.N), "residualrows/op")
}

// BenchmarkMaskedAggregation measures a filtered global aggregate whose
// arguments all fold as floats: each block of the scan is one run, one
// AddFloats per argument over the block's selected rows, and min/max
// fold into a summary without allocating. The boxed reference scan (the
// test oracle) is the baseline. The bench fails if Plan.MaskedAgg stops
// reporting the statement.
func BenchmarkMaskedAggregation(b *testing.B) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 200_000, Seed: 7})
	stmt, err := sqlparse.Parse(
		"SELECT count(*) AS n, sum(temperature) AS s, min(temperature) AS mn, max(temperature) AS mx " +
			"FROM readings WHERE humidity >= 35")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	modes := []struct {
		name string
		run  func() (*exec.Result, error)
	}{
		{"reference", func() (*exec.Result, error) { return exec.RunReference(ctx, tbl, stmt) }},
		{"masked", func() (*exec.Result, error) { return exec.Run(b.Context(), tbl, stmt) }},
	}
	for _, mode := range modes {
		if _, err := mode.run(); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(200_000 * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mode.run()
				if err != nil {
					b.Fatal(err)
				}
				if mode.name == "masked" && !res.Plan.MaskedAgg {
					b.Fatalf("masked aggregation not engaged: %+v", res.Plan)
				}
			}
		})
	}
}
