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

// Differential harnesses for the statistics-free planner: greedy clause
// ordering must be invisible in every output bit (tables, group order,
// lineage, errors) next to the boxed reference scan, which evaluates
// WHERE left to right per row, and the incremental ORDER BY merge must
// be invisible next to the reference's full sort. Both run under
// adversarial configurations — a 4 KiB thrash pool with 4 shards for
// the filter, append/retention chains for the sort — because those are
// the paths the optimizations actually reorder work on.

// randAndChain builds a WHERE that is a root AND chain of 2..5
// conjuncts — the shape the greedy planner orders. Conjuncts are
// randWhere subtrees at depth 1, so the chain mixes simple probeable
// leaves, nested OR/NOT subtrees (eagerly lowered), further ANDs
// (flattened into the chain), and non-lowerable nodes (LIKE,
// arithmetic) that ride as residuals.
func randAndChain(rng *rand.Rand) expr.Expr {
	e := randWhere(rng, 1)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		e = expr.NewBin(expr.OpAnd, e, randWhere(rng, 1))
	}
	return e
}

// TestGreedyFilterParityOutOfCore pins greedy-ordered filter evaluation
// bit-identical to the reference scan's left-to-right per-row
// evaluation, over an out-of-core table served through a 4 KiB thrash pool
// with 4 scan shards — the config where the ordering, short-circuit,
// and adaptive shard split all engage at once.
func TestGreedyFilterParityOutOfCore(t *testing.T) {
	sawOrdered, sawShortCircuit := false, false
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		fs := store.NewMemFS()
		buildOOCTable(t, fs, rng, 6+rng.Intn(4))

		oracleSt, oracle := reopen(t, fs, 0)
		if err := oracleSt.Close(); err != nil {
			t.Fatal(err)
		}
		lazySt, lazy := reopen(t, fs, 4096)

		for iter := 0; iter < 30; iter++ {
			stmt, _ := randStmt(rng)
			stmt.Where = randAndChain(rng)
			sql := stmt.String()

			ref, refErr := runRef(oracle, stmt)
			greedy, gErr := runWith(lazy, stmt, Options{Shards: 4})
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
				// A lowered root AND chain must record its ordering: the
				// order is a permutation of the source positions.
				if greedy.Plan.FilterConjuncts < 2 {
					t.Fatalf("seed %d iter %d: lowered AND chain not ordered: %+v\nsql: %s", seed, iter, greedy.Plan, sql)
				}
				seen := make(map[int]bool)
				for _, p := range greedy.Plan.FilterOrder {
					if p < 0 || p >= greedy.Plan.FilterConjuncts || seen[p] {
						t.Fatalf("seed %d iter %d: FilterOrder %v is not a permutation of %d conjuncts",
							seed, iter, greedy.Plan.FilterOrder, greedy.Plan.FilterConjuncts)
					}
					seen[p] = true
				}
				sawOrdered = true
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
	if !sawOrdered || !sawShortCircuit {
		t.Fatalf("harness coverage: sawOrdered=%v sawShortCircuit=%v", sawOrdered, sawShortCircuit)
	}
}

// TestAdvanceSortCarryParity pins the incremental ORDER BY merge
// bit-identical to the full sort of a from-scratch reference run,
// across 3-step append/retention chains.
func TestAdvanceSortCarryParity(t *testing.T) {
	carried := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		tbl := tinySegTable(rng, 100+rng.Intn(200))
		for iter := 0; iter < 12; iter++ {
			stmt, _ := randStmt(rng)
			// The carry is the subject: every statement sorts (an aggregate
			// output whose value changes as batches land, so carried groups
			// and re-sorted newcomers interleave), and half also HAVING-
			// filter so verdict flips are in play too.
			stmt.OrderBy = []sqlparse.OrderItem{{Expr: expr.NewCol("a0"), Desc: rng.Intn(2) == 0}}
			if rng.Intn(2) == 0 {
				stmt.Having = expr.NewBin(expr.OpGt, expr.NewCol("a0"), expr.Int(0))
			}
			sql := stmt.String()
			cur := tbl
			resCarry, err := RunOn(cur, stmt)
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
				advCarry, err := Advance(resCarry, cur)
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
				if advCarry.Plan.SortCarried {
					carried++
				}
				resCarry = advCarry
			}
			tbl = cur
		}
	}
	if carried == 0 {
		t.Fatal("incremental sort merge never engaged across the whole harness")
	}
}
