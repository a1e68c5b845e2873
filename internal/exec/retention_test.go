package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// tinySegTable rebuilds a parityTable's rows into a minimum-segment
// table so short chains straddle seal and retention boundaries — and,
// a segment being one fold block, fold-block boundaries.
func tinySegTable(rng *rand.Rand, nrows int) *engine.Table {
	return segCopy(parityTable(rng, nrows), engine.MinSegmentBits)
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
// segments moves the table's base, and a carried result is valid only
// at the base it was computed at — so an advance across a moved base
// re-runs over the retained window with a "retention:" plan reason, and
// the produced result must be bit-identical to a from-scratch reference
// scan of the retained table. Tables are forced to the minimum segment
// size so the short chains straddle many seal and retention boundaries.

// TestAdvanceRetentionParity interleaves boundary-straddling append
// batches with randomized retention passes and checks the advanced
// result against the reference scan at every step: a step that dropped
// rows re-runs with a retention reason, every other step carries.
func TestAdvanceRetentionParity(t *testing.T) {
	sawDrop, sawDistinct := false, false
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 733))
		tbl := tinySegTable(rng, 100+rng.Intn(200))
		for iter := 0; iter < 12; iter++ {
			stmt, hasDistinct := randStmt(rng)
			sql := stmt.String()
			cur := tbl
			res, err := Run(t.Context(), cur, stmt)
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
				adv, err := AdvanceCtx(t.Context(), res, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v\nsql: %s", seed, iter, step, err, sql)
				}
				if !adv.Plan.Vectorized || adv.Plan.Incremental == (adv.Plan.Fallback != "") {
					t.Fatalf("seed %d iter %d step %d: an advance either carries or re-runs on the pipeline with a recorded reason, got %+v\nsql: %s", seed, iter, step, adv.Plan, sql)
				}
				if dropped == 0 && !adv.Plan.Incremental {
					t.Fatalf("seed %d iter %d step %d: only retention may force a re-run, got %+v\nsql: %s", seed, iter, step, adv.Plan, sql)
				}
				if dropped > 0 && (adv.Plan.Incremental || !strings.HasPrefix(adv.Plan.Fallback, "retention:")) {
					t.Fatalf("seed %d iter %d step %d: an advance across a moved base must re-run with a retention reason, got %+v\nsql: %s", seed, iter, step, adv.Plan, sql)
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
	if !sawDrop || !sawDistinct {
		t.Fatalf("harness coverage: sawDrop=%v sawDistinct=%v", sawDrop, sawDistinct)
	}
}

// retentionFixture builds a tiny-segment table whose float column x
// equals the row's stream index, so a WHERE x >= cutoff statement
// selects rows by stream position.
func retentionFixture(t *testing.T, rows int) *engine.Table {
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

// TestAdvanceRetentionBeyondWindow is a regression test: a carried
// result with NO groups (WHERE matched nothing) whose entire window is
// dropped by retention once slipped past the horizon checks with a
// negative suffix start and panicked in the suffix scan. It must fall
// back with a retention reason instead.
func TestAdvanceRetentionBeyondWindow(t *testing.T) {
	tbl := retentionFixture(t, 64)
	stmt := retentionStmt(t, 1e9) // matches nothing: zero groups
	res, err := Run(t.Context(), tbl, stmt)
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
	adv, err := AdvanceCtx(t.Context(), res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Plan.Incremental || !strings.HasPrefix(adv.Plan.Fallback, "retention:") {
		t.Fatalf("expected recorded retention fallback, got %+v", adv.Plan)
	}
	ref, err := runRef(cur, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "beyond-window", ref.Table, adv.Table)
}
