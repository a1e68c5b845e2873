// Package testgen generates randomized tables, append batches,
// statements, suspect selections and error metrics for the
// differential test harnesses that pin the incremental paths
// (exec.AdvanceCtx, influence.RankAdvancedCtx, core.DebugAdvance) to their
// from-scratch oracles.
//
// The value distribution deliberately reuses the PR 3 parity
// generator's shape: NULL-heavy columns, NaN, signed zeros, and
// collision-heavy values — and floats drawn from multiples of 0.25 in
// a small range, whose sums (and sums of squares) are exactly
// representable, so block-folded scans, merged aggregate states and
// suffix-folded advances must agree with a sequential rebuild to the
// last bit. Differential tests can therefore assert exact equality
// instead of hiding maintenance bugs behind a tolerance.
//
// This is a non-test package so every layer's _test files can share
// one generator; it must not be imported from production code.
package testgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// Schema is the generated table's shape: two small-domain ints, a
// float with NULL/NaN/±0.0, a string dictionary with NULLs and empty
// strings, and a timestamp.
func Schema() engine.Schema {
	return engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "j", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "s", Type: engine.TString},
		{Name: "t", Type: engine.TTime},
	}
}

var genStrs = []string{"a", "b", "c", "", "xy"}

// drawRow draws one random row of Schema.
func drawRow(rng *rand.Rand) []engine.Value {
	row := make([]engine.Value, 5)
	row[0] = engine.NewInt(int64(rng.Intn(11) - 5))
	if rng.Float64() < 0.15 {
		row[0] = engine.Null
	}
	row[1] = engine.NewInt(int64(rng.Intn(4)))
	switch {
	case rng.Float64() < 0.12:
		row[2] = engine.Null
	case rng.Float64() < 0.1:
		row[2] = engine.NewFloat(math.NaN())
	case rng.Float64() < 0.08:
		// Signed zeros: Key() and the executor's canonSlot must both
		// collapse -0.0 and +0.0 into one group.
		row[2] = engine.NewFloat(math.Copysign(0, -1))
	case rng.Float64() < 0.08:
		row[2] = engine.NewFloat(0)
	default:
		// Multiples of 0.25 in [-8, 8): exact partial sums.
		row[2] = engine.NewFloat(float64(rng.Intn(64)-32) * 0.25)
	}
	if rng.Float64() < 0.15 {
		row[3] = engine.Null
	} else {
		row[3] = engine.NewString(genStrs[rng.Intn(len(genStrs))])
	}
	if rng.Float64() < 0.1 {
		row[4] = engine.Null
	} else {
		row[4] = engine.NewTimeUnix(int64(rng.Intn(7200)))
	}
	return row
}

// JSONRow draws one JSON-safe row of Schema: no NaN, which JSON cannot
// carry, and quarter floats, so a row sent through /api/append answers
// bit for bit what the same row appended directly does. Times are unix
// seconds.
func JSONRow(rng *rand.Rand) []any {
	row := make([]any, 5)
	if rng.Float64() < 0.1 {
		row[0] = nil
	} else {
		row[0] = rng.Intn(11) - 5
	}
	row[1] = rng.Intn(4)
	if rng.Float64() < 0.1 {
		row[2] = nil
	} else {
		row[2] = float64(rng.Intn(64)-32) * 0.25
	}
	if rng.Float64() < 0.1 {
		row[3] = nil
	} else {
		row[3] = genStrs[rng.Intn(len(genStrs))]
	}
	row[4] = rng.Intn(7200)
	return row
}

// JSONBatch draws k JSONRows.
func JSONBatch(rng *rand.Rand, k int) [][]any {
	out := make([][]any, k)
	for i := range out {
		out[i] = JSONRow(rng)
	}
	return out
}

// EngRow is a JSONRow as engine values, for a direct table or store
// append.
func EngRow(j []any) []engine.Value {
	row := make([]engine.Value, 5)
	for c, v := range j {
		if v == nil {
			row[c] = engine.Null
			continue
		}
		switch c {
		case 0, 1:
			row[c] = engine.NewInt(int64(v.(int)))
		case 2:
			row[c] = engine.NewFloat(v.(float64))
		case 3:
			row[c] = engine.NewString(v.(string))
		default:
			row[c] = engine.NewTimeUnix(int64(v.(int)))
		}
	}
	return row
}

// Table builds a random table named "p" with nrows rows.
func Table(rng *rand.Rand, nrows int) *engine.Table {
	t, err := engine.NewTable("p", Schema())
	if err != nil {
		panic(err)
	}
	if t, err = t.AppendBatch(Batch(rng, nrows)); err != nil {
		panic(err)
	}
	return t
}

// Batch draws k random rows as an AppendBatch payload.
func Batch(rng *rand.Rand, k int) [][]engine.Value {
	out := make([][]engine.Value, k)
	for i := range out {
		out[i] = drawRow(rng)
	}
	return out
}

// DebugStmt generates a random grouped aggregate statement a Debug run
// can analyze: 1–2 group-by keys over the dictionary / small-int /
// bucketed columns and 1–3 aggregates over the float column, one time in
// ten each a computed argument or count(DISTINCT s) over the string
// column. The first aggregate is the one the harnesses debug.
func DebugStmt(rng *rand.Rand) *sqlparse.SelectStmt {
	stmt := &sqlparse.SelectStmt{From: "p", Limit: -1}
	var groupBy []expr.Expr
	switch rng.Intn(5) {
	case 0:
		groupBy = []expr.Expr{expr.NewCol("s")}
	case 1:
		groupBy = []expr.Expr{expr.NewCol("i")}
	case 2:
		groupBy = []expr.Expr{expr.NewFunc("bucket", expr.NewCol("i"), expr.Int(3))}
	case 3:
		groupBy = []expr.Expr{expr.NewCol("s"), expr.NewCol("j")}
	default:
		groupBy = []expr.Expr{expr.NewCol("j")}
	}
	stmt.GroupBy = groupBy
	for k, g := range groupBy {
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: cloneExpr(g), Alias: fmt.Sprintf("g%d", k)})
	}
	nagg := 1 + rng.Intn(3)
	for k := 0; k < nagg; k++ {
		var call *sqlparse.AggCall
		switch rng.Intn(10) {
		case 0:
			call = &sqlparse.AggCall{Name: "count", Star: true}
		case 1:
			call = &sqlparse.AggCall{Name: "avg", Arg: expr.NewCol("f")}
		case 2:
			call = &sqlparse.AggCall{Name: "stddev", Arg: expr.NewCol("f")}
		case 3:
			call = &sqlparse.AggCall{Name: "var", Arg: expr.NewCol("f")}
		case 4:
			call = &sqlparse.AggCall{Name: "median", Arg: expr.NewCol("f")}
		case 5:
			call = &sqlparse.AggCall{Name: "sum", Arg: expr.NewBin(expr.OpAdd, expr.NewCol("f"), expr.NewCol("j"))}
		case 6:
			call = &sqlparse.AggCall{Name: "count", Arg: expr.NewCol("s"), Distinct: true}
		case 7:
			call = &sqlparse.AggCall{Name: []string{"min", "max"}[rng.Intn(2)], Arg: expr.NewCol("f")}
		default:
			call = &sqlparse.AggCall{Name: "sum", Arg: expr.NewCol("f")}
		}
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Agg: call, Alias: fmt.Sprintf("a%d", k)})
	}
	if rng.Float64() < 0.4 {
		col := []string{"i", "j", "f"}[rng.Intn(3)]
		ops := []expr.BinOp{expr.OpGe, expr.OpLe, expr.OpNeq}
		var lit expr.Expr
		if col == "f" {
			lit = expr.Float(float64(rng.Intn(32)-16) * 0.25)
		} else {
			lit = expr.Int(int64(rng.Intn(7) - 3))
		}
		stmt.Where = expr.NewBin(ops[rng.Intn(len(ops))], expr.NewCol(col), lit)
	}
	return stmt
}

// cloneExpr re-parses an expression from its SQL rendering so select
// items and GROUP BY don't share nodes (matching the parser's output).
func cloneExpr(g expr.Expr) expr.Expr {
	stmt, err := sqlparse.Parse("SELECT " + g.String() + " FROM x GROUP BY " + g.String())
	if err != nil {
		panic(fmt.Sprintf("testgen: cloneExpr %q: %v", g, err))
	}
	return stmt.Items[0].Expr
}

// Suspects draws a random non-empty subset of res's output rows whose
// first aggregate is non-NULL (Debug rejects all-NULL selections with
// an empty-lineage error either way; keeping some signal makes the
// harness exercise the interesting paths more often).
func Suspects(rng *rand.Rand, res *exec.Result) []int {
	n := res.NumRows()
	if n == 0 {
		return nil
	}
	want := 1 + rng.Intn(3)
	var out []int
	// Evenly spaced starting at a random offset: deterministic given
	// the rng, covers different groups across iterations.
	off := rng.Intn(n)
	for k := 0; k < n && len(out) < want; k++ {
		out = append(out, (off+k*maxInt(1, n/want))%n)
	}
	seen := map[int]bool{}
	uniq := out[:0]
	for _, r := range out {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	return uniq
}

// Metric draws one of the five registry metrics — the sum combines and
// diff's max, zscore's scaled term — with small integral parameters
// (zscore's Std 1 or 2), so ε values stay exactly representable.
func Metric(rng *rand.Rand) errmetric.Metric {
	c := float64(rng.Intn(9) - 4)
	switch rng.Intn(5) {
	case 0:
		return errmetric.TooHigh{C: c}
	case 1:
		return errmetric.TooLow{C: c}
	case 2:
		return errmetric.NotEqual{C: c}
	case 3:
		return errmetric.Diff{C: c}
	default:
		return errmetric.ZScore{Mean: c, Std: float64(1 + rng.Intn(2)), K: float64(rng.Intn(3))}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TableSeg builds a random table named "p" with nrows rows and a
// forced segment size of 1<<segBits rows — harnesses pass
// engine.MinSegmentBits so short append chains straddle many segment
// boundaries and retention drops land mid-test.
func TableSeg(rng *rand.Rand, nrows int, segBits uint) *engine.Table {
	t, err := engine.NewTableSeg("p", Schema(), segBits)
	if err != nil {
		panic(err)
	}
	if t, err = t.AppendBatch(Batch(rng, nrows)); err != nil {
		panic(err)
	}
	return t
}

// Query parses sql and runs it with exec.Run over the table of db that
// its FROM names: the lookup exec.Run leaves to its caller.
func Query(ctx context.Context, db *engine.DB, sql string) (*exec.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	src, err := db.Table(stmt.From)
	if err != nil {
		return nil, err
	}
	return exec.Run(ctx, src, stmt)
}
