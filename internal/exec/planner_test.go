package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// Differential harnesses for the filter walk and the sort carry: the
// mask walk over a root AND chain, with its short-circuit, must be
// invisible in every output bit (tables, group order, lineage, errors)
// next to the boxed reference scan, which evaluates WHERE left to right
// per row, and the incremental ORDER BY merge must be invisible next to
// the reference's full sort. Both run under adversarial configurations —
// a 4 KiB thrash pool under 64-row fold blocks for the filter,
// append/retention chains for the sort — because those are the paths
// where the fast paths do their work differently.

// randAndChain builds a WHERE that is a root AND chain of 2..5
// conjuncts — the shape the conjunct walker walks. Conjuncts are
// randWhere subtrees at depth 1, so the chain mixes simple probeable
// leaves, nested OR/NOT subtrees (eagerly lowered), further ANDs
// (flattened into the chain), and non-lowerable nodes (LIKE over a
// computed value, arithmetic) that ride as residuals.
func randAndChain(rng *rand.Rand) expr.Expr {
	e := randWhere(rng, 1)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		e = expr.NewBin(expr.OpAnd, e, randWhere(rng, 1))
	}
	return e
}

// TestGreedyFilterParityOutOfCore pins the mask walk of a root AND chain
// bit-identical to the reference scan's left-to-right per-row
// evaluation, over an out-of-core table of 64-row segments (as many fold
// blocks) served through a 4 KiB thrash pool — the config where the
// short-circuit and block fold engage at once.
func TestGreedyFilterParityOutOfCore(t *testing.T) {
	sawShortCircuit := false
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		fs := store.NewMemFS()
		buildOOCTable(t, fs, rng, 6+rng.Intn(4))

		oracle := residentReopen(t, fs)
		lazySt, lazy := reopen(t, fs, 4096)

		for iter := 0; iter < 30; iter++ {
			stmt, _ := randStmt(rng)
			stmt.Where = randAndChain(rng)
			sql := stmt.String()

			ref, refErr := runRef(oracle, stmt)
			greedy, gErr := Run(t.Context(), lazy, stmt)
			if (refErr != nil) != (gErr != nil) {
				t.Fatalf("seed %d iter %d: error disagreement\nsql: %s\nref: %v\ngreedy: %v",
					seed, iter, sql, refErr, gErr)
			}
			if refErr != nil {
				continue
			}
			label := fmt.Sprintf("seed %d iter %d [%s]", seed, iter, sql)
			tablesEqual(t, label, ref.Table, greedy.Table)
			groupsEqual(t, label, ref, greedy)
			assertPipeline(t, label, greedy)
			if greedy.Plan.WhereLowered {
				if greedy.Plan.FilterConjuncts < 2 {
					t.Fatalf("seed %d iter %d: lowered AND chain not walked: %+v\nsql: %s", seed, iter, greedy.Plan, sql)
				}
				if greedy.Plan.FilterShortCircuited > 0 {
					sawShortCircuit = true
				}
			}
			if n := lazySt.PoolPinned(); n != 0 {
				t.Fatalf("seed %d iter %d: %d chunks still pinned [%s]", seed, iter, n, sql)
			}
		}
		if err := lazySt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawShortCircuit {
		t.Fatal("harness coverage: no chain short-circuited")
	}
}

// TestAdvanceSortCarryParity pins the ORDER BY and HAVING output an
// advanced result carries forward bit-identical to a from-scratch
// reference run, across 3-step append/retention chains.
func TestAdvanceSortCarryParity(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		tbl := tinySegTable(rng, 100+rng.Intn(200))
		for iter := 0; iter < 12; iter++ {
			stmt, _ := randStmt(rng)
			// The order is the subject: every statement sorts (an aggregate
			// output whose value changes as batches land, so carried groups
			// and newcomers interleave), and half also HAVING-filter so
			// verdict flips are in play too.
			stmt.OrderBy = []sqlparse.OrderItem{{Expr: expr.NewCol("a0"), Desc: rng.Intn(2) == 0}}
			if rng.Intn(2) == 0 {
				stmt.Having = expr.NewBin(expr.OpGt, expr.NewCol("a0"), expr.Int(0))
			}
			sql := stmt.String()
			cur := tbl
			resCarry, err := Run(t.Context(), cur, stmt)
			if err != nil {
				continue
			}
			for step := 0; step < 3; step++ {
				grown, err := cur.AppendBatch(batchRows(rng, boundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				if rng.Intn(3) == 0 {
					keep := cur.SegRows() * (1 + rng.Intn(4))
					nt, _, err := cur.RetainTail(engine.RetentionPolicy{MaxRows: keep})
					if err != nil {
						t.Fatal(err)
					}
					cur = nt
				}
				advCarry, err := AdvanceCtx(t.Context(), resCarry, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v\nsql: %s", seed, iter, step, err, sql)
				}
				ref, err := runRef(cur, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: reference run: %v\nsql: %s", seed, iter, step, err, sql)
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, sql)
				tablesEqual(t, label, ref.Table, advCarry.Table)
				groupsEqual(t, label, ref, advCarry)
				resCarry = advCarry
			}
			tbl = cur
		}
	}
}
