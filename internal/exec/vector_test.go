package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/agg"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// Plan coverage: these tests pin that every grouped statement shape
// runs the pipeline (Plan.Vectorized, no Plan.Fallback) — lowered or
// all-residual WHERE, DISTINCT, string-valued computed keys, wide keys —
// with output identical to the RunReference oracle.

func vectorTestTable(t *testing.T) *engine.Table {
	t.Helper()
	tbl, err := engine.NewTable("v", engine.Schema{
		{Name: "city", Type: engine.TString},
		{Name: "pop", Type: engine.TInt},
		{Name: "temp", Type: engine.TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		city engine.Value
		pop  engine.Value
		temp engine.Value
	}{
		{engine.NewString("ann"), engine.NewInt(10), engine.NewFloat(1.5)},
		{engine.NewString("bos"), engine.NewInt(20), engine.NewFloat(2.5)},
		{engine.NewString("ann"), engine.NewInt(30), engine.Null},
		{engine.Null, engine.NewInt(40), engine.NewFloat(-1)},
		{engine.NewString("cam"), engine.Null, engine.NewFloat(4)},
		{engine.NewString("bos"), engine.NewInt(60), engine.NewFloat(0.25)},
	}
	var vals [][]engine.Value
	for _, r := range rows {
		vals = append(vals, []engine.Value{r.city, r.pop, r.temp})
	}
	if tbl, err = tbl.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustParse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// runRef is the oracle side of every differential test in this package.
func runRef(tbl *engine.Table, stmt *sqlparse.SelectStmt) (*Result, error) {
	return RunReference(context.Background(), tbl, stmt)
}

// assertPipeline fails unless res came from a fresh run of the grouped
// pipeline — the only way a grouped statement may execute.
func assertPipeline(t *testing.T, label string, res *Result) {
	t.Helper()
	if !res.Plan.Vectorized || res.Plan.Fallback != "" {
		t.Fatalf("%s: grouped statement left the pipeline: %+v", label, res.Plan)
	}
}

// runBoth executes the statement on the pipeline and on the reference
// scan, checks the outputs match, and returns the pipeline's result for
// plan assertions.
func runBoth(t *testing.T, tbl *engine.Table, sql string) *Result {
	t.Helper()
	res, err := Run(t.Context(), tbl, mustParse(t, sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ref, err := runRef(tbl, mustParse(t, sql))
	if err != nil {
		t.Fatalf("%s (reference): %v", sql, err)
	}
	tablesEqual(t, sql, ref.Table, res.Table)
	groupsEqual(t, sql, ref, res)
	return res
}

func TestVectorPlanLoweredWhere(t *testing.T) {
	tbl := vectorTestTable(t)
	res := runBoth(t, tbl, `SELECT city, sum(pop) AS s FROM v WHERE pop >= 20 AND NOT (temp < 0 OR city = 'cam') GROUP BY city`)
	if !res.Plan.Vectorized || !res.Plan.WhereLowered {
		t.Fatalf("predicate-shaped WHERE should vectorize with lowered filter, got %+v", res.Plan)
	}
	res = runBoth(t, tbl, `SELECT city, count(*) AS c FROM v WHERE temp IS NOT NULL AND city IN ('ann', 'bos') GROUP BY city`)
	if !res.Plan.Vectorized || !res.Plan.WhereLowered {
		t.Fatalf("IS NULL / IN WHERE should lower, got %+v", res.Plan)
	}
	res = runBoth(t, tbl, `SELECT city, count(*) AS c FROM v WHERE pop BETWEEN 15 AND 45 GROUP BY city`)
	if !res.Plan.Vectorized || !res.Plan.WhereLowered {
		t.Fatalf("BETWEEN WHERE should lower, got %+v", res.Plan)
	}
}

func TestVectorPlanAllResidualFilter(t *testing.T) {
	tbl := vectorTestTable(t)
	// length() has no clause-mask lowering: the one conjunct is residual
	// and evaluates per row, while grouping stays on the pipeline.
	res := runBoth(t, tbl, `SELECT city, sum(pop) AS s FROM v WHERE length(city) > 2 GROUP BY city`)
	assertPipeline(t, "all-residual WHERE", res)
	if res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 1 || res.Plan.ResidualRows != tbl.NumRows() {
		t.Fatalf("length() WHERE must be one residual over every row, got %+v", res.Plan)
	}
}

func TestVectorPlanDistinctRunsInPipeline(t *testing.T) {
	tbl := vectorTestTable(t)
	res := runBoth(t, tbl, `SELECT count(DISTINCT city) AS c FROM v`)
	assertPipeline(t, "DISTINCT", res)
	res = runBoth(t, tbl, `SELECT pop, count(DISTINCT city) AS c, sum(DISTINCT temp) AS s FROM v GROUP BY pop`)
	assertPipeline(t, "grouped DISTINCT", res)
	// A filtered global DISTINCT over a numeric column (the benchmark's
	// `distinct` request) folds under the block mask like any other.
	res = runBoth(t, tbl, `SELECT count(DISTINCT temp) AS c FROM v WHERE pop = 20`)
	if !res.Plan.MaskedAgg {
		t.Fatalf("filtered global DISTINCT left the masked fold: %+v", res.Plan)
	}
	// DISTINCT sets merge: the scan folds many blocks like any other, and
	// the blocks' sets union to the sequential scan's.
	big := vectorTestTableSegs(t, 6)
	for _, sql := range []string{
		`SELECT count(DISTINCT city) AS c FROM v`,
		`SELECT pop, count(DISTINCT city) AS c, sum(DISTINCT temp) AS s FROM v GROUP BY pop`,
	} {
		if many := runBoth(t, big, sql); many.Plan.Shards != 6 {
			t.Fatalf("%s folded %d blocks, want 6", sql, many.Plan.Shards)
		}
	}
}

func TestVectorPlanStringComputedKey(t *testing.T) {
	tbl := vectorTestTable(t)
	res := runBoth(t, tbl, `SELECT upper(city) AS u, count(*) AS c FROM v GROUP BY upper(city)`)
	assertPipeline(t, "string-valued computed key", res)
	// Mixed with numeric keys, and a string that spells a number next
	// to that number: interned string slots must never meet numeric ones.
	res = runBoth(t, tbl, `SELECT upper(city) AS u, pop, count(*) AS c FROM v GROUP BY upper(city), pop`)
	assertPipeline(t, "string + numeric key", res)
}

// TestStringComputedKeySharded is the regression test for the mid-scan
// abort: GROUP BY lower(s) used to scan every partition, hit the first
// string key, throw the work away and re-run on the boxed scan,
// reporting success. It now runs once, on the pipeline, across fold
// blocks — NULL keys included — with block partials folding on the
// interned slots.
func TestStringComputedKeySharded(t *testing.T) {
	tbl := tinySegTable(rand.New(rand.NewSource(5)), 900)
	sql := `SELECT lower(s) AS k, i, count(*) AS c, sum(f) AS sf FROM p GROUP BY lower(s), i`
	ref, err := runRef(tbl, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	sawNull := false
	for _, g := range ref.Groups {
		sawNull = sawNull || g.Key[0].IsNull()
	}
	if !sawNull {
		t.Fatal("fixture has no NULL string key")
	}
	res, err := Run(t.Context(), tbl, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	assertPipeline(t, sql, res)
	if res.Plan.Shards < 2 {
		t.Fatalf("folded %d blocks, want several", res.Plan.Shards)
	}
	tablesEqual(t, sql, ref.Table, res.Table)
	groupsEqual(t, sql, ref, res)
}

// TestWideGroupKeys pins keys past the old four-column limit, and that
// slots of different columns never alias inside the byte-string key.
func TestWideGroupKeys(t *testing.T) {
	tbl := parityTable(rand.New(rand.NewSource(6)), 700)
	sql := `SELECT i, j, f, s, t, lower(s) AS ls, count(*) AS c FROM p GROUP BY i, j, f, s, t, lower(s)`
	for _, tbl := range []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} {
		assertPipeline(t, sql, runBoth(t, tbl, sql))
	}
}

// refusingAgg is a state whose Merge always refuses — the broken
// aggregate foldBlocks must report instead of silently re-running.
type refusingAgg struct{ agg.Sum }

func (r *refusingAgg) Clone() agg.Func     { return &refusingAgg{} }
func (r *refusingAgg) Merge(agg.Func) bool { return false }

func TestMergeRefusalIsAnInternalError(t *testing.T) {
	tbl := vectorTestTable(t)
	stmt := mustParse(t, `SELECT count(*) AS c FROM v`)
	_, aggItems, _, err := prepare(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planVector(context.Background(), tbl, stmt, aggItems, []agg.Func{&refusingAgg{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss := newScanner(p)
	defer ss.close()
	a, err := ss.run(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ss.run(3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foldBlocks(p, nil, [][]*vGroup{a, b}, -1); !errors.Is(err, errMerge) {
		t.Fatalf("merge refusal returned %v, want errMerge", err)
	}
}

func TestProjectionUsesLoweredFilter(t *testing.T) {
	tbl := vectorTestTable(t)
	res := runBoth(t, tbl, `SELECT city, pop FROM v WHERE pop > 15 AND city != 'cam'`)
	if !res.Plan.WhereLowered {
		t.Fatalf("projection over predicate WHERE should lower, got %+v", res.Plan)
	}
	// Lineage of a projection is one source row per output row.
	for i := range res.Groups {
		if l := groupLineage(res, i); len(l) != 1 {
			t.Fatalf("projection group %d lineage %v", i, l)
		}
	}
	res = runBoth(t, tbl, `SELECT city FROM v WHERE length(city) = 3`)
	if res.Plan.WhereLowered || res.Plan.FilterFallback != fallbackFilterShape {
		t.Fatalf("length() projection filter must be all-residual, got %+v", res.Plan)
	}
}

// vectorTestTableSegs repeats vectorTestTable's rows into a table of the
// minimum segment size until it spans segs segments: segs fold blocks.
func vectorTestTableSegs(t *testing.T, segs int) *engine.Table {
	t.Helper()
	src := vectorTestTable(t)
	tbl, err := engine.NewTableSeg("v", src.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, 0, segs*tbl.SegRows())
	for len(rows) < segs*tbl.SegRows() {
		for r := 0; r < src.NumRows(); r++ {
			rows = append(rows, src.Row(r))
		}
	}
	tbl, err = tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestVectorShardedMatchesSingleShard: the same rows in six fold blocks
// and in one (a default-segment table) answer alike — the values here are
// exact, so the fold order cannot show.
func TestVectorShardedMatchesSingleShard(t *testing.T) {
	many := vectorTestTableSegs(t, 6)
	one := segCopy(many, engine.DefaultSegmentBits)
	sql := `SELECT city, sum(pop) AS s, min(temp) AS m FROM v GROUP BY city`
	a, err := Run(t.Context(), one, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(t.Context(), many, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Shards != 1 || b.Plan.Shards != 6 {
		t.Fatalf("fold blocks: %+v vs %+v", a.Plan, b.Plan)
	}
	tablesEqual(t, sql, a.Table, b.Table)
	groupsEqual(t, sql, a, b)
}
