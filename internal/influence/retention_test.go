package influence

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// TestAdvanceScorerRetentionDifferential chains boundary-straddling
// appends and whole-segment retention drops through exec.Advance and
// pins AdvanceScorer to NewScorer at every step — whichever internal
// path it takes (shifted carry, carried-bitset rebuild, or full
// rebuild), the scorer must be bit-identical to a from-scratch build
// over the same result.
func TestAdvanceScorerRetentionDifferential(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 3
	}
	horizons, sawDistinct := 0, false
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 557))
		tbl := testgen.TableSeg(rng, 80+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < 5; iter++ {
			stmt := testgen.DebugStmt(rng)
			res, err := exec.RunOn(tbl, stmt)
			if err != nil {
				continue
			}
			metric := testgen.Metric(rng)
			suspect := testgen.Suspects(rng, res)
			if len(suspect) == 0 {
				continue
			}
			sawDistinct = sawDistinct || stmt.Items[len(stmt.GroupBy)].Agg.Distinct
			prev, err := NewScorer(res, suspect, 0, metric)
			if err != nil {
				t.Fatalf("seed %d iter %d: NewScorer: %v [%s]", seed, iter, err, stmt)
			}
			cur := tbl
			for step := 0; step < 3; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, testgen.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				if rng.Intn(2) == 0 {
					var dropped int
					cur, dropped = testgen.RetainStep(rng, cur)
					if dropped > 0 {
						horizons++
					}
				}
				adv, err := exec.Advance(res, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				if !adv.Plan.Incremental && !strings.HasPrefix(adv.Plan.Fallback, "retention:") {
					t.Fatalf("seed %d iter %d step %d: only retention may force a re-run: %+v [%s]", seed, iter, step, adv.Plan, stmt)
				}
				if rng.Intn(2) == 0 {
					suspect = testgen.Suspects(rng, adv)
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, stmt.String())
				fresh, freshErr := NewScorer(adv, suspect, 0, metric)
				carried, carErr := AdvanceScorer(prev, adv, suspect, 0, metric)
				if freshErr != nil || carErr != nil {
					t.Fatalf("%s: fresh=%v carried=%v", label, freshErr, carErr)
				}
				scorersEqual(t, label, fresh, carried, rng)
				oracleEqual(t, label, adv, suspect, metric, carried, rng)
				prev = carried
				res = adv
			}
			tbl = cur
		}
	}
	if horizons < 3 || !sawDistinct {
		t.Fatalf("harness degenerated: %d retention horizons crossed, debugged count(DISTINCT s): %v", horizons, sawDistinct)
	}
}

// TestAdvanceScorerShiftedCarry drives the word-shift rebase path
// deterministically: a statement whose WHERE excludes the dropped
// segments keeps its suspect groups' identities (first rows shift by
// exactly the drop), so the carried F union must rebase by word-shift
// — verified white-box via sameSuspectGroups — and still equal a fresh
// build.
func TestAdvanceScorerShiftedCarry(t *testing.T) {
	tbl, err := engine.NewTableSeg("m", engine.NewSchema("x", engine.TFloat, "j", engine.TInt), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, 5*64+7)
	for i := range rows {
		rows[i] = []engine.Value{engine.NewFloat(float64(i)), engine.NewInt(int64(i % 3))}
	}
	tbl, err = tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse("SELECT j, sum(x) AS s FROM m WHERE x >= 256 GROUP BY j")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	metric := testgen.Metric(rand.New(rand.NewSource(1)))
	suspect := []int{0, 1, 2}
	prev, err := NewScorer(res, suspect, 0, metric)
	if err != nil {
		t.Fatal(err)
	}

	grown, err := tbl.AppendBatch([][]engine.Value{{engine.NewFloat(5*64 + 7), engine.NewInt(0)}})
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows == 0 {
		t.Fatal("fixture dropped nothing")
	}
	adv, err := exec.Advance(res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental {
		t.Fatalf("fixture should rebase in exec.Advance: %+v", adv.Plan)
	}
	fresh, err := NewScorer(adv, suspect, 0, metric)
	if err != nil {
		t.Fatal(err)
	}
	// White-box: the shifted identity must hold, so AdvanceScorer takes
	// the word-shift carry, not a rebuild.
	if !sameSuspectGroups(prev, fresh, stats.DroppedRows) {
		t.Fatalf("suspect identities did not shift by the drop: prev %v vs fresh %v (drop %d)",
			prev.firstRows, fresh.firstRows, stats.DroppedRows)
	}
	carried, err := AdvanceScorer(prev, adv, suspect, 0, metric)
	if err != nil {
		t.Fatal(err)
	}
	scorersEqual(t, "shifted carry", fresh, carried, rand.New(rand.NewSource(2)))
}
