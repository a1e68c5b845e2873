package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// These tests pin the mask-guarded global aggregation path: a GROUP
// BY-free statement whose aggregates all fold as floats must run
// through the batch kernels (Plan.MaskedAgg) and stay bit-identical to
// the reference scan at every filter density — including NaN, ±0.0,
// and NULL inputs, many fold blocks, incremental Advance, and the 4 KiB
// thrash-pool out-of-core configuration.

// maskedAggSQL spans every float-fed aggregate over the parity table's
// awkward float column.
const maskedAggSQL = "SELECT count(*) AS n, sum(f) AS sf, avg(f) AS af, min(f) AS mn, max(f) AS mx, stddev(f) AS sd FROM p"

func TestMaskedAggDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := parityTable(rng, 5000)
	cases := []struct {
		name  string
		where string
	}{
		{"empty", "i > 100"},                          // zero survivors: no group at all
		{"sparse", "f = 3.25"},                        // ~1/64 of rows: one bit per word territory
		{"half", "i >= 0"},                            // ~half the rows survive
		{"full", "j >= 0"},                            // j has no NULLs: the mask fills
		{"like", "i >= 2 AND s LIKE 'a%'"},            // two lowered conjuncts
		{"residual", "i >= 2 AND lower(s) LIKE 'a%'"}, // lowered prefix + residual conjunct
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sql := maskedAggSQL + " WHERE " + tc.where
			for _, tbl := range []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} {
				res, err := Run(t.Context(), tbl, mustParse(t, sql))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Plan.Vectorized || !res.Plan.MaskedAgg {
					t.Fatalf("%d-row segments: masked aggregation did not engage: %+v", tbl.SegRows(), res.Plan)
				}
				ref, err := runRef(tbl, mustParse(t, sql))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%d-row segments [%s]", tbl.SegRows(), sql)
				tablesEqual(t, label, ref.Table, res.Table)
				groupsEqual(t, label, ref, res)
			}
		})
	}
}

// Statements outside the kernel's shape — computed arguments, boxed
// column arguments, no WHERE at all — must not claim MaskedAgg, and
// must still match the reference.
func TestMaskedAggEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tbl := parityTable(rng, 2000)
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT sum(f) AS sf FROM p WHERE i >= 0", true},
		{"SELECT sum(f) AS sf FROM p", false},                         // no filter mask to fold under
		{"SELECT sum(f + 1) AS sf FROM p WHERE i >= 0", false},        // computed argument
		{"SELECT count(s) AS cs FROM p WHERE i >= 0", false},          // boxed column argument
		{"SELECT median(f) AS md FROM p WHERE i >= 0", true},          // median appends floats: still float-fed
		{"SELECT sum(f) AS sf FROM p WHERE i >= 0 GROUP BY j", false}, // grouped
	}
	for _, tc := range cases {
		res, err := Run(t.Context(), tbl, mustParse(t, tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.MaskedAgg != tc.want {
			t.Fatalf("[%s] MaskedAgg = %v, want %v (plan %+v)", tc.sql, res.Plan.MaskedAgg, tc.want, res.Plan)
		}
		ref, err := runRef(tbl, mustParse(t, tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, tc.sql, ref.Table, res.Table)
		groupsEqual(t, tc.sql, ref, res)
	}
}

// Random WHERE trees over random float-fed aggregate lists, pipeline
// vs reference — the masked path must hold bit-exact parity wherever it
// engages, and it must actually engage.
func TestMaskedAggParityRandomized(t *testing.T) {
	aggs := []string{"count(*)", "sum(f)", "avg(f)", "min(f)", "max(f)", "stddev(f)", "var(f)", "sum(i)", "median(f)"}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	sawMasked := false
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed * 7))
		tbl := parityTable(rng, 1500)
		tables := []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} // one fold block, then 24
		for iter := 0; iter < 50; iter++ {
			sel := ""
			for i, k := 0, 1+rng.Intn(3); i < k; i++ {
				if i > 0 {
					sel += ", "
				}
				sel += fmt.Sprintf("%s AS a%d", aggs[rng.Intn(len(aggs))], i)
			}
			stmt := mustParse(t, "SELECT "+sel+" FROM p WHERE i >= 0")
			stmt.Where = randWhere(rng, 1+rng.Intn(2))
			for _, tbl := range tables {
				ref, refErr := runRef(tbl, stmt)
				got, gotErr := Run(t.Context(), tbl, stmt)
				if (refErr != nil) != (gotErr != nil) {
					t.Fatalf("seed %d iter %d, %d-row segments: error disagreement ref=%v got=%v where=%s", seed, iter, tbl.SegRows(), refErr, gotErr, stmt.Where)
				}
				if refErr != nil {
					continue
				}
				label := fmt.Sprintf("seed %d iter %d, %d-row segments [%s | %s]", seed, iter, tbl.SegRows(), sel, stmt.Where)
				tablesEqual(t, label, ref.Table, got.Table)
				groupsEqual(t, label, ref, got)
				if got.Plan.MaskedAgg {
					sawMasked = true
				}
			}
		}
	}
	if !sawMasked {
		t.Fatal("no statement took the masked aggregation path")
	}
}

// Advance seeds the suffix scan with the carried global group; the
// masked kernels must fold appended rows into it exactly as the per-row
// scan would.
func TestMaskedAggAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := parityTable(rng, 800)
	stmt := mustParse(t, maskedAggSQL+" WHERE i >= 0")
	res, err := Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.MaskedAgg {
		t.Fatalf("fresh run skipped the masked path: %+v", res.Plan)
	}
	cur := tbl
	for step := 0; step < 3; step++ {
		grown, err := cur.AppendBatch(batchRows(rng, 50+rng.Intn(100)))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := AdvanceCtx(t.Context(), res, grown)
		if err != nil {
			t.Fatal(err)
		}
		if !adv.Plan.Incremental || !adv.Plan.MaskedAgg {
			t.Fatalf("step %d: advance left the masked incremental path: %+v", step, adv.Plan)
		}
		ref, err := runRef(grown, stmt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("advance step %d", step)
		tablesEqual(t, label, ref.Table, adv.Table)
		groupsEqual(t, label, ref, adv)
		cur, res = grown, adv
	}
}

// The masked kernels pin one chunk per (segment, argument) and release
// it before the next — under a 4 KiB pool that thrashes every fault,
// results must stay bit-identical to the fully resident oracle and no
// pins may leak.
func TestMaskedAggOutOfCore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fs := store.NewMemFS()
	buildOOCTable(t, fs, rng, 10)

	oracle := residentReopen(t, fs)
	lazySt, lazy := reopen(t, fs, 4096)
	defer lazySt.Close()

	wheres := []string{"i > 100", "f = 3.25", "i >= 0", "j >= 0", "i >= 2 AND s LIKE 'a%'", "i >= 2 AND lower(s) LIKE 'a%'"}
	for _, where := range wheres {
		sql := maskedAggSQL + " WHERE " + where
		ref, err := runRef(oracle, mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(t.Context(), lazy, mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Plan.MaskedAgg {
			t.Fatalf("[%s]: masked path did not engage out of core: %+v", sql, res.Plan)
		}
		label := fmt.Sprintf("ooc [%s]", sql)
		tablesEqual(t, label, ref.Table, res.Table)
		groupsEqual(t, label, ref, res)
		if n := lazySt.PoolPinned(); n != 0 {
			t.Fatalf("%s: %d chunks still pinned after query", label, n)
		}
	}
	if stats := lazySt.Stats(); stats.Pool == nil || stats.Pool.Misses == 0 {
		t.Fatal("thrash pool never faulted — the out-of-core case was not exercised")
	}
}
