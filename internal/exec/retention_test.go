package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// tinySegTable rebuilds a parityTable's rows into a minimum-segment
// table so short chains straddle seal and retention boundaries.
func tinySegTable(rng *rand.Rand, nrows int) *engine.Table {
	src := parityTable(rng, nrows)
	tbl, err := engine.NewTableSeg("p", src.Schema(), engine.MinSegmentBits)
	if err != nil {
		panic(err)
	}
	rows := make([][]engine.Value, nrows)
	for r := 0; r < nrows; r++ {
		rows[r] = src.Row(r)
	}
	if nrows == 0 {
		return tbl
	}
	tbl, err = tbl.AppendBatch(rows)
	if err != nil {
		panic(err)
	}
	return tbl
}

// boundaryBatchSize draws an append batch size biased to land exactly
// on, one under, or one over the next segment boundary.
func boundaryBatchSize(rng *rand.Rand, t *engine.Table) int {
	segRows := t.SegRows()
	toBoundary := segRows - t.NumRows()%segRows
	switch rng.Intn(6) {
	case 0:
		return toBoundary
	case 1:
		if toBoundary > 1 {
			return toBoundary - 1
		}
		return 1
	case 2:
		return toBoundary + 1
	case 3:
		return toBoundary + segRows
	default:
		return 1 + rng.Intn(2*segRows)
	}
}

// These tests pin Advance across retention horizons: dropping head
// segments rebases row ids, and a carried result must either rebase
// its state by pure id translation (when nothing it references was
// dropped) or fall back to a full re-run over the retained window with
// a recorded plan reason — and in both cases the produced result must
// be bit-identical to a from-scratch reference scan of the retained
// table. Tables are forced to the minimum segment size so the short
// chains straddle many seal and retention boundaries.

// TestAdvanceRetentionParity interleaves boundary-straddling append
// batches with randomized retention passes and checks the advanced
// result against the reference scan at every step.
func TestAdvanceRetentionParity(t *testing.T) {
	sawDrop, sawFallback, sawDistinct := false, false, false
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 733))
		tbl := tinySegTable(rng, 100+rng.Intn(200))
		for iter := 0; iter < 12; iter++ {
			stmt, hasDistinct := randStmt(rng)
			sql := stmt.String()
			cur := tbl
			res, err := RunOn(cur, stmt)
			if err != nil {
				continue
			}
			assertPipeline(t, sql, res)
			sawDistinct = sawDistinct || hasDistinct
			for step := 0; step < 3; step++ {
				grown, err := cur.AppendBatch(batchRows(rng, boundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				var dropped int
				if rng.Intn(2) == 0 {
					keep := cur.SegRows() * (1 + rng.Intn(4))
					nt, stats, err := cur.RetainTail(engine.RetentionPolicy{MaxRows: keep})
					if err != nil {
						t.Fatal(err)
					}
					cur, dropped = nt, stats.DroppedRows
					if dropped > 0 {
						sawDrop = true
					}
				}
				adv, err := Advance(res, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v\nsql: %s", seed, iter, step, err, sql)
				}
				if !adv.Plan.Vectorized || adv.Plan.Incremental == (adv.Plan.Fallback != "") {
					t.Fatalf("seed %d iter %d step %d: an advance either carries or re-runs on the pipeline with a recorded reason, got %+v\nsql: %s", seed, iter, step, adv.Plan, sql)
				}
				if dropped == 0 && !adv.Plan.Incremental {
					t.Fatalf("seed %d iter %d step %d: only retention may force a re-run, got %+v\nsql: %s", seed, iter, step, adv.Plan, sql)
				}
				if dropped > 0 && !adv.Plan.Incremental {
					sawFallback = true
				}
				ref, err := runRef(cur, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: reference run: %v\nsql: %s", seed, iter, step, err, sql)
				}
				label := fmt.Sprintf("seed %d iter %d step %d drop %d [%s]", seed, iter, step, dropped, sql)
				tablesEqual(t, label, ref.Table, adv.Table)
				groupsEqual(t, label, ref, adv)
				res = adv
			}
			tbl = cur
		}
	}
	if !sawDrop || !sawFallback || !sawDistinct {
		t.Fatalf("harness coverage: sawDrop=%v sawFallback=%v sawDistinct=%v", sawDrop, sawFallback, sawDistinct)
	}
}

// retentionRebaseFixture builds a tiny-segment table whose float
// column x equals the row's stream index, so a WHERE x >= cutoff
// statement provably never touches rows an aligned retention pass
// drops — the case where carried state rebases instead of falling
// back.
func retentionRebaseFixture(t *testing.T, rows int) *engine.Table {
	t.Helper()
	tbl, err := engine.NewTableSeg("m", engine.NewSchema("x", engine.TFloat, "j", engine.TInt), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]engine.Value, rows)
	for i := range batch {
		batch[i] = []engine.Value{engine.NewFloat(float64(i)), engine.NewInt(int64(i % 3))}
	}
	tbl, err = tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func retentionStmt(t *testing.T, cutoff float64) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(fmt.Sprintf(
		"SELECT j, sum(x) AS s, count(*) AS c, sum(DISTINCT x - j) AS d FROM m WHERE x >= %v GROUP BY j", cutoff))
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestAdvanceRetentionRebase drives the pure-translation path: the
// statement's WHERE excludes every dropped row, so Advance keeps the
// carried group states (Plan.Incremental) and just shifts ids — and
// the rebased result, its lineage bitsets and its argument views must
// all equal fresh builds over the retained table.
func TestAdvanceRetentionRebase(t *testing.T) {
	tbl := retentionRebaseFixture(t, 5*64+10)
	stmt := retentionStmt(t, 4*64) // only the newest segment-and-a-bit matches
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the carried caches so the rebase path has something to carry.
	for ri := range res.Groups {
		res.GroupLineageBitsShared(ri)
	}
	if _, err := res.AggArgFloats(0); err != nil {
		t.Fatal(err)
	}

	grown, err := tbl.AppendBatch([][]engine.Value{
		{engine.NewFloat(5*64 + 10), engine.NewInt(1)},
		{engine.NewFloat(5*64 + 11), engine.NewInt(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows == 0 || stats.DroppedRows >= 4*64 {
		t.Fatalf("fixture drop = %d rows, want (0, %d)", stats.DroppedRows, 4*64)
	}

	adv, err := Advance(res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental {
		t.Fatalf("expected the rebase path, got plan %+v", adv.Plan)
	}
	ref, err := runRef(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "rebase", ref.Table, adv.Table)
	groupsEqual(t, "rebase", ref, adv)

	// Carried caches: rebased lineage bitsets and argument views must
	// equal fresh builds over the retained table.
	fresh, err := RunOn(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range adv.Groups {
		got, want := adv.GroupLineageBitsShared(ri), fresh.GroupLineageBitsShared(ri)
		if got.Len() != want.Len() || got.Count() != want.Count() {
			t.Fatalf("group %d lineage bits: len %d/%d count %d/%d", ri, got.Len(), want.Len(), got.Count(), want.Count())
		}
		for r := 0; r < got.Len(); r++ {
			if got.Get(r) != want.Get(r) {
				t.Fatalf("group %d lineage bit %d differs", ri, r)
			}
		}
	}
	gotAV, err := adv.AggArgFloats(0)
	if err != nil {
		t.Fatal(err)
	}
	wantAV, err := fresh.AggArgFloats(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAV.Vals) != len(wantAV.Vals) {
		t.Fatalf("rebased ArgView length %d, want %d", len(gotAV.Vals), len(wantAV.Vals))
	}
	for i := range gotAV.Vals {
		same := gotAV.Vals[i] == wantAV.Vals[i] || (gotAV.Vals[i] != gotAV.Vals[i] && wantAV.Vals[i] != wantAV.Vals[i])
		if !same || gotAV.Null.Get(i) != wantAV.Null.Get(i) {
			t.Fatalf("rebased ArgView row %d differs", i)
		}
	}

	// A statement whose groups DO reference dropped rows must fall back
	// with a retention reason.
	all, err := sqlparse.Parse("SELECT j, sum(x) AS s FROM m GROUP BY j")
	if err != nil {
		t.Fatal(err)
	}
	resAll, err := RunOn(tbl, all)
	if err != nil {
		t.Fatal(err)
	}
	advAll, err := Advance(resAll, cur)
	if err != nil {
		t.Fatal(err)
	}
	if advAll.Plan.Incremental {
		t.Fatal("full-window statement must not rebase across retention")
	}
	if advAll.Plan.Fallback == "" {
		t.Fatalf("retention fallback reason missing: %+v", advAll.Plan)
	}
	refAll, err := runRef(cur, all)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "fallback", refAll.Table, advAll.Table)
	groupsEqual(t, "fallback", refAll, advAll)
}

// TestAdvanceRetentionBeyondWindow is a regression test: a carried
// result with NO groups (WHERE matched nothing) whose entire window is
// dropped by retention used to slip past the rebase checks with a
// negative suffix start and panic in the shard scan. It must fall back
// with a retention reason instead.
func TestAdvanceRetentionBeyondWindow(t *testing.T) {
	tbl := retentionRebaseFixture(t, 64)
	stmt := retentionStmt(t, 1e9) // matches nothing: zero groups
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("fixture expected no groups, got %d", len(res.Groups))
	}
	cur := tbl
	for i := 0; i < 9; i++ { // grow well past the carried window
		batch := make([][]engine.Value, 64)
		for j := range batch {
			batch[j] = []engine.Value{engine.NewFloat(float64(cur.NumRows() + j)), engine.NewInt(0)}
		}
		cur, err = cur.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	cur, stats, err := cur.RetainTail(engine.RetentionPolicy{MaxRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows <= 64 {
		t.Fatalf("fixture needs the horizon past the carried window, dropped %d", stats.DroppedRows)
	}
	adv, err := Advance(res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Plan.Incremental || adv.Plan.Fallback == "" {
		t.Fatalf("expected recorded retention fallback, got %+v", adv.Plan)
	}
	ref, err := runRef(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "beyond-window", ref.Table, adv.Table)
}

// TestSubSegmentSharding: a table far smaller than one default segment
// must still honor an explicit shard count by splitting on bitset-word
// boundaries, with output identical to the single-shard run.
func TestSubSegmentSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := parityTable(rng, 1000) // default 64Ki segments: 1 partial tail
	sql := `SELECT s, sum(f) AS x, count(*) AS c FROM p GROUP BY s`
	one, err := runWith(tbl, mustParse(t, sql), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := runWith(tbl, mustParse(t, sql), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if many.Plan.Shards != 4 {
		t.Fatalf("explicit 4-shard run used %d shards", many.Plan.Shards)
	}
	tablesEqual(t, sql, one.Table, many.Table)
	groupsEqual(t, sql, one, many)
	// Shard boundaries must sit on word boundaries.
	for _, r := range shardRanges(1000, tbl.SegRows(), 4, nil) {
		if r[0]%64 != 0 {
			t.Fatalf("shard start %d not word-aligned", r[0])
		}
	}
}

// TestAdvanceRetentionSortCarry pins ORDER BY carry across a retention
// pass: a windowed statement that rebases (its WHERE provably excludes
// every dropped row) must also carry its ORDER BY — merging changed and
// suffix-born groups into the carried order instead of re-sorting — and
// stay identical to a fresh ordered run over the retained table.
// Extending the carry to full-window statements is ruled out by
// TestAdvanceRetentionRebase: those must NOT rebase in the first place.
func TestAdvanceRetentionSortCarry(t *testing.T) {
	tbl := retentionRebaseFixture(t, 5*64+10)
	stmt, err := sqlparse.Parse(
		"SELECT j, sum(x) AS s, count(*) AS c FROM m WHERE x >= 256 GROUP BY j ORDER BY s DESC, j")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("fixture expected 3 ordered groups, got %d", len(res.Groups))
	}

	// Append rows skewed toward j=0 so the carried order must move a
	// changed group, not just keep the old permutation.
	base := tbl.NumRows()
	batch := make([][]engine.Value, 40)
	for i := range batch {
		j := int64(0)
		if i%4 == 0 {
			j = int64(i % 3)
		}
		batch[i] = []engine.Value{engine.NewFloat(float64(base + i)), engine.NewInt(j)}
	}
	grown, err := tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows == 0 {
		t.Fatal("fixture dropped nothing: retention not exercised")
	}

	adv, err := Advance(res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental || !adv.Plan.SortCarried || adv.Plan.Fallback != "" {
		t.Fatalf("retention advance lost the ordered carry: %+v", adv.Plan)
	}
	ref, err := runRef(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "retention-order-carry", ref.Table, adv.Table)
	groupsEqual(t, "retention-order-carry", ref, adv)

	// Control: the carry is a pure optimization — a from-scratch ordered
	// run over the retained table sorts in full and must produce the same
	// rows.
	fresh, err := RunOn(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Plan.SortCarried {
		t.Fatalf("fresh run claims a carried sort: %+v", fresh.Plan)
	}
	tablesEqual(t, "retention-order-fresh", fresh.Table, adv.Table)
}
