package exec

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// fuzzFilterTable is the fixed predicate playground: one table per
// process, with NULLs, NaNs, signed zeros and short strings in every
// column, large enough that lowered masks span several bitset words.
var fuzzFilterTable = sync.OnceValue(func() *engine.Table {
	return parityTable(rand.New(rand.NewSource(99)), 300)
})

// FuzzResidualFilterParity pins buildFilter — the one conjunct walker,
// whatever mix of lowered and residual conjuncts the WHERE splits into,
// the all-residual case included — against the per-row expr.EvalBool
// oracle: for any WHERE the parser accepts and
// the schema resolves, the pass mask must match bit for bit, and the
// two sides must agree on whether evaluation errors at all (the
// residual path only reaches rows the scalar evaluator would reach, so
// error presence is part of the contract, not just values).
func FuzzResidualFilterParity(f *testing.F) {
	for _, s := range []string{
		"i >= 2 AND s LIKE 'a%'",
		"s LIKE '%y' AND f + 0.25 > 1 AND i < 3",
		"j = 1 OR s = 'b' OR f > 2",
		"(i > 0 AND s LIKE '_') OR j = 2",
		"NOT (i > 100) AND s LIKE 'a%'",
		"i > 100 AND s LIKE 'a%' AND f < 1",
		"j >= 0 OR s = 'c' OR i = 1",
		"f = 0 AND i IS NOT NULL AND s LIKE '%'",
		"i / 0 > 1 AND s LIKE 'a%'",
		"i > 3 AND f / i > 0.5",
		"s LIKE 'a%'",          // all-residual root
		"j = 1 OR s LIKE '%y'", // OR root with a non-lowerable arm
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		where, err := sqlparse.ParseExpr(text)
		if err != nil {
			return
		}
		tbl := fuzzFilterTable()
		if err := where.Resolve(tbl.Schema()); err != nil {
			return // unknown column/function: unreachable as a WHERE
		}

		// Oracle: ascending per-row EvalBool, stopping at the first
		// error like the reference scan.
		n := tbl.NumRows()
		want := make([]bool, n)
		var wantErr error
		row := make([]engine.Value, tbl.NumCols())
		for r := 0; r < n; r++ {
			tbl.RowInto(r, row)
			ok, err := expr.EvalBool(where, row)
			if err != nil {
				wantErr = err
				break
			}
			want[r] = ok
		}

		mask, _, err := buildFilter(context.Background(), tbl, where, nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("[%s]: error disagreement: buildFilter=%v oracle=%v", where, err, wantErr)
		}
		if err != nil {
			return
		}
		for r := 0; r < n; r++ {
			if mask.Get(r) != want[r] {
				t.Fatalf("[%s]: row %d: mask=%v oracle=%v", where, r, mask.Get(r), want[r])
			}
		}
	})
}
