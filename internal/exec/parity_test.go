package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// This file pins the pipeline to the boxed reference scan
// (RunReference) with randomized statements: WHERE trees (lowerable and
// not), GROUP BY lists of 0–6 keys (column, computed, string-valued
// computed, mixed), aggregate mixes (including computed arguments, and
// DISTINCT over every argument source: numeric column, computed number,
// string column, computed string), over tables with NULLs, NaNs and
// collision-heavy values. Results must match exactly — cell values, group
// order, lineage, FirstRow — at 64-row, 256-row and default segments (as
// many fold blocks as segments, then one), and every fresh grouped run
// must report Plan.Vectorized with an empty Plan.Fallback.
//
// The float column mixes multiples of 0.1 and ±1e16 into exact quarter
// values, so partial sums round and a float aggregate's last bits depend
// on the order it folds in. The table fixes that order (foldRows), and
// the reference folds by the same blocks: exact equality holds anyway.

// parityTable builds a random test table: two int columns, a float
// column (NULLs and NaNs), a string column (NULLs, empty strings), and
// a time column.
func parityTable(rng *rand.Rand, nrows int) *engine.Table {
	schema := engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "j", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "s", Type: engine.TString},
		{Name: "t", Type: engine.TTime},
	}
	t, err := engine.NewTable("p", schema)
	if err != nil {
		panic(err)
	}
	strs := []string{"a", "b", "c", "", "xy"}
	rows := make([][]engine.Value, nrows)
	for r := range rows {
		row := make([]engine.Value, len(schema))
		rows[r] = row
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
			// Signed zeros as group keys: Key() and canonSlot must both
			// collapse -0.0 and +0.0 into one group (they are Equal).
			row[2] = engine.NewFloat(math.Copysign(0, -1))
		case rng.Float64() < 0.08:
			row[2] = engine.NewFloat(0)
		case rng.Float64() < 0.3:
			// Inexact: multiples of 0.1 in [-8, 8), now and then ±1e16.
			if rng.Intn(8) == 0 {
				row[2] = engine.NewFloat(float64(1-2*rng.Intn(2)) * 1e16)
			} else {
				row[2] = engine.NewFloat(float64(rng.Intn(160)-80) * 0.1)
			}
		default:
			// Multiples of 0.25 in [-8, 8).
			row[2] = engine.NewFloat(float64(rng.Intn(64)-32) * 0.25)
		}
		if rng.Float64() < 0.15 {
			row[3] = engine.Null
		} else {
			row[3] = engine.NewString(strs[rng.Intn(len(strs))])
		}
		if rng.Float64() < 0.1 {
			row[4] = engine.Null
		} else {
			row[4] = engine.NewTimeUnix(int64(rng.Intn(7200)))
		}
	}
	if t, err = t.AppendBatch(rows); err != nil {
		panic(err)
	}
	return t
}

// segCopy copies src's rows into a table of 1<<segBits-row segments.
func segCopy(src *engine.Table, segBits uint) *engine.Table {
	tbl, err := engine.NewTableSeg(src.Name(), src.Schema(), segBits)
	if err != nil || src.NumRows() == 0 {
		return tbl
	}
	rows := make([][]engine.Value, src.NumRows())
	for r := range rows {
		rows[r] = src.Row(r)
	}
	if tbl, err = tbl.AppendBatch(rows); err != nil {
		panic(err)
	}
	return tbl
}

var parityCols = []string{"i", "j", "f", "s", "t"}

func randLit(rng *rand.Rand, col string) expr.Expr {
	if rng.Float64() < 0.07 {
		return expr.NewLit(engine.Null)
	}
	if rng.Float64() < 0.1 {
		// Deliberately mismatched literal type for the column.
		if col == "s" {
			return expr.Int(int64(rng.Intn(5)))
		}
		return expr.Str("a")
	}
	switch col {
	case "s":
		return expr.Str([]string{"a", "b", "c", "", "zz"}[rng.Intn(5)])
	case "f":
		if rng.Float64() < 0.08 {
			return expr.Float(math.NaN())
		}
		if rng.Float64() < 0.06 {
			return expr.Float(math.Copysign(0, -1))
		}
		return expr.Float(float64(rng.Intn(64)-32) * 0.25)
	case "t":
		return expr.NewLit(engine.NewTimeUnix(int64(rng.Intn(7200))))
	default:
		return expr.Int(int64(rng.Intn(11) - 5))
	}
}

var cmpOps = []expr.BinOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// likePatterns covers both wildcards, a bare '%', no wildcard at all and
// the empty pattern (which matches only the empty string).
var likePatterns = []string{"a%", "%y", "_", "%", "", "b", "x_", "_%_", "%a%"}

func randWhere(rng *rand.Rand, depth int) expr.Expr {
	if depth > 0 && rng.Float64() < 0.55 {
		switch rng.Intn(3) {
		case 0:
			return expr.NewBin(expr.OpAnd, randWhere(rng, depth-1), randWhere(rng, depth-1))
		case 1:
			return expr.NewBin(expr.OpOr, randWhere(rng, depth-1), randWhere(rng, depth-1))
		default:
			return expr.NewNot(randWhere(rng, depth-1))
		}
	}
	col := parityCols[rng.Intn(len(parityCols))]
	switch rng.Intn(10) {
	case 0:
		return &expr.IsNull{X: expr.NewCol(col), Invert: rng.Intn(2) == 0}
	case 1:
		return &expr.Between{
			X: expr.NewCol(col), Lo: randLit(rng, col), Hi: randLit(rng, col),
			Invert: rng.Intn(2) == 0,
		}
	case 2:
		in := &expr.In{X: expr.NewCol(col), Invert: rng.Intn(2) == 0}
		for k := 0; k < 1+rng.Intn(3); k++ {
			in.List = append(in.List, randLit(rng, col))
		}
		return in
	case 3:
		// LIKE on the string column lowers to a clause mask; over a
		// computed value it is a residual conjunct.
		var x expr.Expr = expr.NewCol("s")
		if rng.Intn(3) == 0 {
			x = expr.NewFunc("lower", x)
		}
		return &expr.Like{X: x, Pattern: likePatterns[rng.Intn(len(likePatterns))], Invert: rng.Intn(2) == 0}
	case 4:
		// Not lowerable: arithmetic inside the comparison.
		lhs := expr.NewBin(expr.OpAdd, expr.NewCol("f"), expr.Float(0.25))
		return expr.NewBin(cmpOps[rng.Intn(len(cmpOps))], lhs, randLit(rng, "f"))
	default:
		op := cmpOps[rng.Intn(len(cmpOps))]
		l, r := expr.Expr(expr.NewCol(col)), randLit(rng, col)
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		return expr.NewBin(op, l, r)
	}
}

// randGroupBy returns 0..6 group-by expressions: columns of every type,
// numeric computed keys, and string-valued computed keys (lower(s),
// upper(s)) mixed in with them. Wide lists are drawn less often than
// narrow ones but often enough that every width appears in each
// harness.
func randGroupBy(rng *rand.Rand) []expr.Expr {
	ng := rng.Intn(3)
	if rng.Intn(3) == 0 {
		ng = rng.Intn(7)
	}
	var out []expr.Expr
	for k := 0; k < ng; k++ {
		switch rng.Intn(10) {
		case 9:
			// A string literal inside the key: the select item must match it
			// exactly (the structural GROUP BY check), while the column
			// names may differ in case (cloneGroupExpr upper-cases them).
			out = append(out, expr.NewFunc("coalesce", expr.NewCol("s"), expr.Str([]string{"a", "A", "Xy"}[rng.Intn(3)])))
		case 0:
			out = append(out, expr.NewCol("s"))
		case 1:
			out = append(out, expr.NewCol("f"))
		case 2:
			out = append(out, expr.NewFunc("bucket", expr.NewCol("i"), expr.Int(3)))
		case 3:
			out = append(out, expr.NewFunc("bucket", expr.NewFunc("epoch", expr.NewCol("t")), expr.Int(1800)))
		case 4:
			out = append(out, expr.NewFunc("lower", expr.NewCol("s")))
		case 5:
			out = append(out, expr.NewFunc("upper", expr.NewCol("s")))
		case 6:
			out = append(out, expr.NewCol("j"))
		case 7:
			out = append(out, expr.NewCol("t"))
		default:
			out = append(out, expr.NewCol("i"))
		}
	}
	return out
}

// distinctNames × distinctArgs is what a random DISTINCT aggregate draws
// from: an identity-only, two algebraic, an extremal and a holistic inner
// aggregate, over each argument source the scan has (argFloat, argEval
// yielding numbers, argDict under count and argEval under the rest,
// argEval yielding strings).
var (
	distinctNames = []string{"count", "sum", "avg", "min", "median"}
	distinctArgs  = []func() expr.Expr{
		func() expr.Expr { return expr.NewCol("f") },
		func() expr.Expr { return expr.NewBin(expr.OpAdd, expr.NewCol("f"), expr.NewCol("j")) },
		func() expr.Expr { return expr.NewCol("s") },
		func() expr.Expr { return expr.NewFunc("lower", expr.NewCol("s")) },
	}
)

func randAggItem(rng *rand.Rand, alias string) sqlparse.SelectItem {
	var call *sqlparse.AggCall
	switch rng.Intn(14) {
	case 0:
		call = &sqlparse.AggCall{Name: "count", Star: true}
	case 1:
		call = &sqlparse.AggCall{Name: "count", Arg: expr.NewCol("f")}
	case 2:
		call = &sqlparse.AggCall{Name: "avg", Arg: expr.NewCol("f")}
	case 3:
		call = &sqlparse.AggCall{Name: "min", Arg: expr.NewCol("i")}
	case 4:
		call = &sqlparse.AggCall{Name: "max", Arg: expr.NewCol("f")}
	case 5:
		call = &sqlparse.AggCall{Name: "stddev", Arg: expr.NewCol("f")}
	case 6:
		call = &sqlparse.AggCall{Name: "var", Arg: expr.NewCol("i")}
	case 7:
		call = &sqlparse.AggCall{Name: "median", Arg: expr.NewCol("f")}
	case 8:
		// Computed argument: exercises the per-row evaluator source.
		call = &sqlparse.AggCall{Name: "sum", Arg: expr.NewBin(expr.OpAdd, expr.NewCol("f"), expr.NewCol("j"))}
	case 9:
		// Aggregate over a string column (boxed column source).
		call = &sqlparse.AggCall{Name: "count", Arg: expr.NewCol("s")}
	case 10, 11, 12:
		call = &sqlparse.AggCall{
			Name:     distinctNames[rng.Intn(len(distinctNames))],
			Arg:      distinctArgs[rng.Intn(len(distinctArgs))](),
			Distinct: true,
		}
	default:
		call = &sqlparse.AggCall{Name: "sum", Arg: expr.NewCol("f")}
	}
	return sqlparse.SelectItem{Agg: call, Alias: alias}
}

func randStmt(rng *rand.Rand) (*sqlparse.SelectStmt, bool) {
	stmt := &sqlparse.SelectStmt{From: "p", Limit: -1}
	stmt.GroupBy = randGroupBy(rng)
	for k, g := range stmt.GroupBy {
		// Re-create an equal expression so select items and GROUP BY
		// don't share nodes (matching what the parser produces).
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: cloneGroupExpr(g), Alias: fmt.Sprintf("g%d", k)})
	}
	nagg := 1 + rng.Intn(3)
	hasDistinct := false
	for k := 0; k < nagg; k++ {
		item := randAggItem(rng, fmt.Sprintf("a%d", k))
		if item.Agg.Distinct {
			hasDistinct = true
		}
		stmt.Items = append(stmt.Items, item)
	}
	if rng.Float64() < 0.65 {
		stmt.Where = randWhere(rng, 2)
	}
	if rng.Float64() < 0.2 {
		stmt.Having = expr.NewBin(expr.OpGt, expr.NewCol("a0"), expr.Int(0))
	}
	if rng.Float64() < 0.3 {
		stmt.OrderBy = []sqlparse.OrderItem{{Expr: expr.NewCol("a0"), Desc: rng.Intn(2) == 0}}
	}
	if rng.Float64() < 0.15 {
		stmt.Limit = rng.Intn(5)
	}
	return stmt, hasDistinct
}

// cloneGroupExpr re-parses a group-by expression from its SQL rendering
// so the plain select item is an independent, structurally-equal tree —
// with every column name upper-cased, which the resolver and the GROUP
// BY check must both see through (literals keep their case: they are
// values, not names).
func cloneGroupExpr(g expr.Expr) expr.Expr {
	stmt, err := sqlparse.Parse("SELECT " + g.String() + " FROM x GROUP BY " + g.String())
	if err != nil {
		panic(fmt.Sprintf("cloneGroupExpr %q: %v", g, err))
	}
	return upperNames(stmt.Items[0].Expr)
}

func upperNames(e expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.Col:
		n.Name = strings.ToUpper(n.Name)
	case *expr.Func: // its name is already folded: NewFunc lower-cases
		for _, a := range n.Args {
			upperNames(a)
		}
	}
	return e
}

// sameCell compares two values bit for bit: type, integer payload, float
// bits (so -0.0, NaN payloads and ints past 2^53 count) and string.
func sameCell(a, b engine.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// keysEqual compares two groups' boxed keys bit for bit.
func keysEqual(t *testing.T, label string, gi int, a, b []engine.Value) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: group %d has %d vs %d key values", label, gi, len(a), len(b))
	}
	for k := range a {
		if !sameCell(a[k], b[k]) {
			t.Fatalf("%s: group %d key %d: %#v vs %#v", label, gi, k, a[k], b[k])
		}
	}
}

// mustProv returns r's provenance, building it where it is not built.
func mustProv(r *Result) *Provenance {
	v, err := r.Provenance(context.Background())
	if err != nil {
		panic(err)
	}
	return v
}

// groupLineage is output row ri's lineage, through r's provenance.
func groupLineage(r *Result, ri int) []int { return mustProv(r).Rows(ri) }

// groupsEqual compares two results' provenance exactly: lineage through
// groupLineage, which builds it where it is not built.
func groupsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: %d vs %d groups", label, len(a.Groups), len(b.Groups))
	}
	for gi := range a.Groups {
		ga, gb := a.Groups[gi], b.Groups[gi]
		keysEqual(t, label, gi, ga.Key, gb.Key)
		if ga.FirstRow != gb.FirstRow {
			t.Fatalf("%s: group %d FirstRow %d vs %d", label, gi, ga.FirstRow, gb.FirstRow)
		}
		la, lb := groupLineage(a, gi), groupLineage(b, gi)
		if len(la) != len(lb) || ga.Rows != len(la) || gb.Rows != len(lb) {
			t.Fatalf("%s: group %d lineage %d vs %d rows (counted %d vs %d)", label, gi, len(la), len(lb), ga.Rows, gb.Rows)
		}
		for k := range la {
			if la[k] != lb[k] {
				t.Fatalf("%s: group %d lineage[%d] %d vs %d", label, gi, k, la[k], lb[k])
			}
		}
	}
}

// tablesEqual compares materialized output cell-for-cell (Value.Key is
// NaN-safe and numerically canonical).
func tablesEqual(t *testing.T, label string, a, b *engine.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		if a.Schema()[c].Name != b.Schema()[c].Name {
			t.Fatalf("%s: column %d label %q vs %q", label, c, a.Schema()[c].Name, b.Schema()[c].Name)
		}
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			va, vb := a.Value(r, c), b.Value(r, c)
			if va.Key() != vb.Key() {
				t.Fatalf("%s: cell (%d,%d): %s vs %s", label, r, c, va, vb)
			}
		}
	}
}

func TestVectorScalarParity(t *testing.T) {
	widths := make(map[int]int)
	sawDistinct, sawStringKey := make(map[string]bool), false
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := parityTable(rng, rng.Intn(600))
		tables := []*engine.Table{segCopy(tbl, engine.MinSegmentBits), segCopy(tbl, 8), tbl}
		for iter := 0; iter < 60; iter++ {
			stmt, hasDistinct := randStmt(rng)
			sql := stmt.String()

			var ref *Result
			var refErr error
			for _, tbl := range tables {
				label := fmt.Sprintf("seed %d iter %d segment %d [%s]", seed, iter, tbl.SegRows(), sql)
				ref, refErr = runRef(tbl, stmt)
				vec, vecErr := RunOn(tbl, stmt)
				if (refErr != nil) != (vecErr != nil) {
					t.Fatalf("%s: error disagreement\nref: %v\nvec: %v", label, refErr, vecErr)
				}
				if refErr != nil {
					continue
				}
				tablesEqual(t, label, ref.Table, vec.Table)
				groupsEqual(t, label, ref, vec)
				assertPipeline(t, label, vec)
			}
			if refErr != nil {
				continue
			}
			widths[len(stmt.GroupBy)]++
			for _, item := range stmt.Items {
				if hasDistinct && item.IsAgg() && item.Agg.Distinct {
					sawDistinct[item.Agg.Name], sawDistinct[item.Agg.Arg.String()] = true, true
				}
			}
			for _, g := range ref.Groups {
				for k, v := range g.Key {
					if _, isCol := stmt.GroupBy[k].(*expr.Col); !isCol && v.T == engine.TString {
						sawStringKey = true
					}
				}
			}
		}
	}
	for w := 0; w <= 6; w++ {
		if widths[w] == 0 {
			t.Fatalf("harness coverage: no statement with %d group keys ran (%v)", w, widths)
		}
	}
	if len(sawDistinct) != len(distinctNames)+len(distinctArgs) || !sawStringKey {
		t.Fatalf("harness coverage: sawDistinct=%v sawStringKey=%v", sawDistinct, sawStringKey)
	}
}
