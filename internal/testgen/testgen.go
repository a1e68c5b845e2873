// Package testgen generates randomized tables, append batches,
// statements, suspect selections and error metrics for the
// differential test harnesses that pin the incremental paths
// (exec.Advance, influence.RankAdvancedCtx, core.DebugAdvance) to their
// from-scratch oracles.
//
// The value distribution deliberately reuses the PR 3 parity
// generator's shape: NULL-heavy columns, NaN, signed zeros, and
// collision-heavy values — and floats drawn from multiples of 0.25 in
// a small range, whose sums (and sums of squares) are exactly
// representable, so sharded scans, merged aggregate states and
// suffix-folded advances must agree with a sequential rebuild to the
// last bit. Differential tests can therefore assert exact equality
// instead of hiding maintenance bugs behind a tolerance.
//
// This is a non-test package so every layer's _test files can share
// one generator; it must not be imported from production code.
package testgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

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

// Row draws one random row of Schema.
func Row(rng *rand.Rand) []engine.Value {
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
		out[i] = Row(rng)
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

// keyKernelShapes are the computed-key GROUP BY lists the executor runs
// as typed chunk kernels: one kernel key; a kernel key beside a
// dictionary key and a per-row string key; int- and float-typed
// arithmetic keys.
var keyKernelShapes = [][]string{
	{"bucket(epoch(t), 1800)"},
	{"bucket(i, 3)", "s", "lower(s)"},
	{"i * 2 - j", "floor(f / 2)"},
}

// KeyKernelStmt generates a grouped statement over one of the
// computed-key shapes (keyKernelShapes) with a counting, a float-fed and
// a computed argument, and half the time a WHERE.
func KeyKernelStmt(rng *rand.Rand) *sqlparse.SelectStmt {
	groupBy := keyKernelShapes[rng.Intn(len(keyKernelShapes))]
	items := make([]string, len(groupBy))
	for k, g := range groupBy {
		items[k] = fmt.Sprintf("%s AS g%d", g, k)
	}
	where := ""
	if rng.Intn(2) == 0 {
		where = fmt.Sprintf(" WHERE j >= %d", rng.Intn(3))
	}
	sql := fmt.Sprintf("SELECT %s, count(*) AS a0, avg(f) AS a1, sum(f + j) AS a2 FROM p%s GROUP BY %s",
		strings.Join(items, ", "), where, strings.Join(groupBy, ", "))
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("testgen: KeyKernelStmt %q: %v", sql, err))
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

// Metric draws a random error metric with a small integral reference,
// so ε values stay exactly representable.
func Metric(rng *rand.Rand) errmetric.Metric {
	c := float64(rng.Intn(9) - 4)
	switch rng.Intn(3) {
	case 0:
		return errmetric.TooHigh{C: c}
	case 1:
		return errmetric.TooLow{C: c}
	default:
		return errmetric.NotEqual{C: c}
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

// TableSegBigInt is TableSeg with one cell of i past 2^53 in the middle
// row: the column's float chunk has rounded it, so a key kernel reading i
// declines that row's block — mid-scan — and no other.
func TableSegBigInt(rng *rand.Rand, nrows int, segBits uint) *engine.Table {
	t, err := engine.NewTableSeg("p", Schema(), segBits)
	if err != nil {
		panic(err)
	}
	rows := Batch(rng, nrows)
	rows[nrows/2][0] = engine.NewInt(1<<53 + 1)
	if t, err = t.AppendBatch(rows); err != nil {
		panic(err)
	}
	return t
}

// BoundaryBatchSize draws an append batch size biased to land exactly
// on, one under, or one over the table's next segment boundary —
// where every off-by-one in the seal and suffix plumbing would live — and
// otherwise a small random size.
func BoundaryBatchSize(rng *rand.Rand, t *engine.Table) int {
	segRows := t.SegRows()
	toBoundary := segRows - t.NumRows()%segRows // rows until the next seal
	switch rng.Intn(6) {
	case 0:
		return toBoundary // lands exactly on the boundary
	case 1:
		if toBoundary > 1 {
			return toBoundary - 1 // one under
		}
		return 1
	case 2:
		return toBoundary + 1 // one over
	case 3:
		return toBoundary + segRows // straddles two boundaries
	default:
		return 1 + rng.Intn(2*segRows)
	}
}

// RetainStep applies a randomized row-bound retention policy to the
// newest version, returning it (possibly unchanged) plus the stream
// rows dropped. Harnesses interleave it with append batches to check
// that carried state is rebuilt across every moved base.
func RetainStep(rng *rand.Rand, t *engine.Table) (*engine.Table, int) {
	keep := t.SegRows() * (1 + rng.Intn(4))
	nt, stats, err := t.RetainTail(engine.RetentionPolicy{MaxRows: keep})
	if err != nil {
		panic(err)
	}
	return nt, stats.DroppedRows
}
