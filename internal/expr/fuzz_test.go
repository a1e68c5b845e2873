// Package expr_test (external): the fuzz target needs sqlparse to turn
// fuzzed text into expressions, and sqlparse imports expr — an internal
// test package would cycle.
package expr_test

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// FuzzCompileParity pins the contract the executor's per-row evaluator
// (exec's rowEval) relies on: Eval reads only the cells of the columns
// the expression names. For any expression the parser accepts and the
// schema resolves, Eval over a buffer holding only the cells of
// e.Columns(nil) — every other cell a poison value — must produce the
// same value as Eval over the full row, or fail on both, on every row,
// including NULL, NaN and ±0.0 cells.
//
// The fuzzer drives the expression text and one row's cell values; the
// fixed rows below keep the edge cases (NULLs everywhere, NaN, -0.0,
// empty string) in every run.
func FuzzCompileParity(f *testing.F) {
	type seed struct {
		expr string
		i    int64
		fv   float64
		s    string
	}
	for _, s := range []seed{
		{"i + f", 1, 0.25, "a"},
		{"f > 0 AND s = 'a'", -2, math.Inf(1), ""},
		{"bucket(f, 3)", 0, -0.0, "xy"},
		{"s LIKE 'a%' OR i BETWEEN -1 AND 1", 5, 2.5, "ab"},
		{"lower(s) IN ('a', '') AND f IS NOT NULL", 0, 0, "A"},
		{"-i * (f - 2)", 3, 0.75, "b"},
		{"epoch(t) > 100", 7, 1.5, "c"},
	} {
		f.Add(s.expr, s.i, s.fv, s.s)
	}
	schema := engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "s", Type: engine.TString},
		{Name: "t", Type: engine.TTime},
	}
	poison := engine.NewString("\x00poison")
	f.Fuzz(func(t *testing.T, exprText string, iv int64, fv float64, sv string) {
		e, err := sqlparse.ParseExpr(exprText)
		if err != nil {
			return
		}
		if err := e.Resolve(schema); err != nil {
			return // unknown column/function: no row is ever evaluated
		}
		named := make([]bool, len(schema))
		for _, name := range e.Columns(nil) {
			named[schema.ColIndex(name)] = true
		}
		rows := [][]engine.Value{
			{engine.NewInt(iv), engine.NewFloat(fv), engine.NewString(sv), engine.NewTimeUnix(iv & 0xffff)},
			{engine.Null, engine.Null, engine.Null, engine.Null},
			{engine.NewInt(0), engine.NewFloat(math.NaN()), engine.NewString(""), engine.NewTimeUnix(0)},
			{engine.NewInt(-1), engine.NewFloat(math.Copysign(0, -1)), engine.Null, engine.NewTimeUnix(3600)},
		}
		buf := make([]engine.Value, len(schema))
		for r, row := range rows {
			for c := range buf {
				buf[c] = poison
				if named[c] {
					buf[c] = row[c]
				}
			}
			want, wantErr := e.Eval(row)
			got, gotErr := e.Eval(buf)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("expr %q row %d: error disagreement: full row=%v named cells=%v", e, r, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if want.Key() != got.Key() {
				t.Fatalf("expr %q row %d: full row=%s named cells=%s", e, r, want, got)
			}
		}
	})
}
