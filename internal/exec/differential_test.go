package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/vfs"
)

// This file is exec's differential generator. A case is a table, a
// history and a statement, drawn from one seed: 64-row, 256-row or
// default segments (some past two polls a fold block), resident or out
// of core, over NULLs, NaNs, ±0, inexact floats and enginetest.EdgeRow's
// cells; boundary-sized appends that grow the dictionary, retention,
// zero-row advances, a result advanced twice or left unread, a call and
// its first provenance read cancelled at every failpoint and retried
// (chaos.CancelEach); WHERE trees of classify's grammar, 0–6 GROUP BY
// keys of every kind, every aggregate with and without DISTINCT, HAVING,
// ORDER BY, LIMIT, or a projection. Every step goes through one check against
// RunReference over a resident copy (compare): errors, output cells,
// group keys, FirstRow, row counts and aggregate states bit for bit
// (sameCell), and the provenance's lineage, bitsets and argument
// views; a first read extends its ancestor's views, and an advance from
// empty is Run. A failing case is shrunk — history steps, then WHERE
// conjuncts, then rows — and printed as SQL plus history. Each test at
// the bottom is a profile; TestDifferential draws from every dimension
// but dBlock.

var genSchema = engine.NewSchema("i", engine.TInt, "j", engine.TInt, "f", engine.TFloat, "s", engine.TString, "t", engine.TTime)

// genVocab is what the string column draws from: the first five values,
// then with appends multibyte, invalid UTF-8, LIKE wildcards, case twins.
var genVocab = []string{"a", "b", "c", "", "xy", "é", "日本", "abc", "xé", "本日", "b%c", "\xff", "éé", "a_", "A", "Xy"}

// genRows draws n rows: i in [-5, 5] and j in [0, 4); f NULL, NaN, ±0,
// multiples of 0.1 or ±1e16 (inexact), else quarters; s from the first
// vocab values of genVocab; t seconds. With edge, one row in eight takes
// its i, f, s and t cells from enginetest.EdgeRow.
func genRows(rng *rand.Rand, n, vocab int, edge bool) [][]engine.Value {
	rows := make([][]engine.Value, n)
	for r := range rows {
		row := make([]engine.Value, len(genSchema))
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
			row[2] = engine.NewFloat(math.Copysign(0, -1))
		case rng.Float64() < 0.08:
			row[2] = engine.NewFloat(0)
		case rng.Float64() < 0.3:
			if rng.Intn(8) == 0 {
				row[2] = engine.NewFloat(float64(1-2*rng.Intn(2)) * 1e16)
			} else {
				row[2] = engine.NewFloat(float64(rng.Intn(160)-80) * 0.1)
			}
		default:
			row[2] = engine.NewFloat(float64(rng.Intn(64)-32) * 0.25)
		}
		if row[3] = engine.Null; rng.Float64() >= 0.15 {
			row[3] = engine.NewString(genVocab[rng.Intn(vocab)])
		}
		if row[4] = engine.Null; rng.Float64() >= 0.1 {
			row[4] = engine.NewTimeUnix(int64(rng.Intn(7200)))
		}
		if edge && rng.Intn(8) == 0 {
			e := enginetest.EdgeRow(rng)
			row[0], row[2], row[3], row[4] = e[0], e[1], e[3], e[4]
		}
	}
	return rows
}

// parityTable is nrows of genRows in a table "p" of 1<<segBits-row
// segments.
func parityTable(rng *rand.Rand, nrows int, segBits uint) *engine.Table {
	return must(must(engine.NewTableSeg("p", genSchema, segBits)).AppendBatch(genRows(rng, nrows, 5, false)))
}

// segCopy copies src's rows into a table of 1<<segBits-row segments.
func segCopy(src *engine.Table, segBits uint) *engine.Table {
	return must(must(engine.NewTableSeg(src.Name(), src.Schema(), segBits)).AppendBatch(batchOf(src, 0)))
}

// seq is 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func mustExpr(s string) expr.Expr { return must(sqlparse.ParseExpr(s)) }

var parityCols = []string{"i", "j", "f", "s", "t"}

func randLit(rng *rand.Rand, col string) expr.Expr {
	switch {
	case rng.Float64() < 0.07:
		return expr.NewLit(engine.Null)
	case rng.Float64() < 0.1 && col == "s": // the wrong type for the column
		return expr.Int(int64(rng.Intn(5)))
	case rng.Float64() < 0.1 || col == "s":
		return expr.Str([]string{"a", "b", "c", "", "zz", "é"}[rng.Intn(6)])
	case col == "t":
		return expr.NewLit(engine.NewTimeUnix(int64(rng.Intn(7200))))
	case col != "f":
		return expr.Int(int64(rng.Intn(11) - 5))
	case rng.Float64() < 0.08:
		return expr.Float(math.NaN())
	case rng.Float64() < 0.06:
		return expr.Float(math.Copysign(0, -1))
	}
	return expr.Float(float64(rng.Intn(64)-32) * 0.25)
}

var cmpOps = []expr.BinOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// likePatterns covers both wildcards, a bare '%', no wildcard, the empty
// pattern (only the empty string matches) and '_' against multibyte runes.
var likePatterns = []string{"a%", "%y", "_", "__", "%", "", "b", "x_", "_%_", "%a%", "é", "_本", "%é", "%\xff"}

func randWhere(rng *rand.Rand, depth int) expr.Expr {
	if depth > 0 && rng.Float64() < 0.55 {
		switch rng.Intn(3) {
		case 0:
			return expr.NewBin(expr.OpAnd, randWhere(rng, depth-1), randWhere(rng, depth-1))
		case 1:
			return expr.NewBin(expr.OpOr, randWhere(rng, depth-1), randWhere(rng, depth-1))
		}
		return expr.NewNot(randWhere(rng, depth-1))
	}
	col := parityCols[rng.Intn(len(parityCols))]
	switch rng.Intn(10) {
	case 0:
		return &expr.IsNull{X: expr.NewCol(col), Invert: rng.Intn(2) == 0}
	case 1:
		return &expr.Between{X: expr.NewCol(col), Lo: randLit(rng, col), Hi: randLit(rng, col), Invert: rng.Intn(2) == 0}
	case 2:
		in := &expr.In{X: expr.NewCol(col), Invert: rng.Intn(2) == 0}
		for range 1 + rng.Intn(3) {
			in.List = append(in.List, randLit(rng, col))
		}
		return in
	case 3:
		return randLike(rng, expr.NewCol("s"))
	case 4:
		return randResidual(rng)
	}
	l, r := expr.Expr(expr.NewCol(col)), randLit(rng, col)
	if rng.Intn(2) == 0 {
		l, r = r, l
	}
	return expr.NewBin(cmpOps[rng.Intn(len(cmpOps))], l, r)
}

// randLike is LIKE over x — on the string column a clause mask, or one
// time in three over lower(x), a residual.
func randLike(rng *rand.Rand, x expr.Expr) expr.Expr {
	if rng.Intn(3) == 0 {
		x = expr.NewFunc("lower", x)
	}
	return &expr.Like{X: x, Pattern: likePatterns[rng.Intn(len(likePatterns))], Invert: rng.Intn(2) == 0}
}

// randResidual compares a computed value: a conjunct evaluated per row.
func randResidual(rng *rand.Rand) expr.Expr {
	x := mustExpr([]string{"f + 0.25", "length(s)", "abs(i)", "i * j"}[rng.Intn(4)])
	return expr.NewBin(cmpOps[rng.Intn(len(cmpOps))], x, randLit(rng, "f"))
}

// randChain is a root AND (or OR) chain of 2..5 depth-1 trees.
func randChain(rng *rand.Rand, op expr.BinOp) expr.Expr {
	e := randWhere(rng, 1)
	for range 1 + rng.Intn(4) {
		e = expr.NewBin(op, e, randWhere(rng, 1))
	}
	return e
}

// randResidualAnd is an AND chain with residual conjuncts, now and then
// behind a clause no row passes, so the walk runs out of eligible rows
// with residuals pending.
func randResidualAnd(rng *rand.Rand) expr.Expr {
	parts := flattenAnd(randChain(rng, expr.OpAnd), nil)
	for _, p := range rng.Perm(len(parts))[:1+rng.Intn(len(parts))] {
		parts[p] = []expr.Expr{randLike(rng, expr.NewFunc("lower", expr.NewCol("s"))), randResidual(rng)}[rng.Intn(2)]
	}
	if rng.Float64() < 0.2 {
		parts = append([]expr.Expr{mustExpr("i > 100")}, parts...)
	}
	return andOf(parts)
}

func andOf(parts []expr.Expr) expr.Expr {
	out := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		out = expr.NewBin(expr.OpAnd, parts[i], out)
	}
	return out
}

// groupKeys are columns of every type, numeric computed keys the scan
// runs as kernels (groupKeys[5:12]), keys it declines (coalesce), and
// string-valued computed keys, whose literal a select item must match.
var groupKeys = []string{
	"i", "j", "f", "s", "t", "bucket(i, 3)", "bucket(epoch(t), 1800)", "i * 2 - j", "floor(f / 2)", "-i", "sqrt(f)",
	"bucket(f, 2)", "coalesce(i, 0)", "lower(s)", "upper(s)", "coalesce(s, 'A')", "coalesce(s, 'Xy')",
}

var aggNames = []string{"count", "sum", "avg", "min", "max", "stddev", "stddev_pop", "var", "var_pop", "median"}

// argTexts are the aggregate arguments: numbers, a time and a computed
// number, then (under count or DISTINCT) a string and a computed string.
var argTexts = []string{"f", "i", "t", "f + j", "s", "lower(s)"}

// randAggItem is count(*) or any aggregate over one of argTexts; one in
// three is DISTINCT.
func randAggItem(rng *rand.Rand, alias string) sqlparse.SelectItem {
	call := &sqlparse.AggCall{Name: "count", Star: true}
	if rng.Intn(8) != 0 {
		call = &sqlparse.AggCall{Name: aggNames[rng.Intn(len(aggNames))], Distinct: rng.Intn(3) == 0}
		args := argTexts
		if call.Name != "count" && !call.Distinct {
			args = args[:4]
		}
		call.Arg = mustExpr(args[rng.Intn(len(args))])
	}
	return sqlparse.SelectItem{Agg: call, Alias: alias}
}

func randStmt(rng *rand.Rand) *sqlparse.SelectStmt {
	if rng.Intn(12) == 0 {
		stmt := must(sqlparse.Parse("SELECT i, s, f + j AS c FROM p"))
		stmt.Where = randWhere(rng, 2)
		return stmt
	}
	ng := rng.Intn(3)
	if rng.Intn(3) == 0 {
		ng = rng.Intn(7) // every width shows up, wide ones less often
	}
	stmt := &sqlparse.SelectStmt{From: "p", Limit: -1}
	for k := range ng {
		// The select item is an equal tree of its own with upper-cased
		// names, as the parser gives it: resolution sees through both.
		key := groupKeys[rng.Intn(len(groupKeys))]
		stmt.GroupBy = append(stmt.GroupBy, mustExpr(key))
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: upperNames(mustExpr(key)), Alias: fmt.Sprintf("g%d", k)})
	}
	for k := range 1 + rng.Intn(3) {
		stmt.Items = append(stmt.Items, randAggItem(rng, fmt.Sprintf("a%d", k)))
	}
	if rng.Float64() < 0.65 {
		stmt.Where = randWhere(rng, 2)
	}
	if rng.Float64() < 0.2 {
		stmt.Having = mustExpr("a0 > 0")
	}
	if rng.Float64() < 0.3 {
		stmt.OrderBy = []sqlparse.OrderItem{{Expr: expr.NewCol("a0"), Desc: rng.Intn(2) == 0}}
	}
	if rng.Float64() < 0.15 {
		stmt.Limit = rng.Intn(5)
	}
	return stmt
}

func upperNames(e expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.Col:
		n.Name = strings.ToUpper(n.Name)
	case *expr.Func:
		for _, a := range n.Args {
			upperNames(a)
		}
	case *expr.Bin:
		upperNames(n.L)
		upperNames(n.R)
	}
	return e
}

// sameCell compares two values bit for bit: type, integer payload, float
// bits (so -0.0, NaN payloads and ints past 2^53 count) and string.
func sameCell(a, b engine.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// compare is the one check: got must be want, bit for bit. Without deep,
// got's provenance stays unread.
func compare(want, got *Result, deep bool) error {
	if err := compareTables(want.Table, got.Table); err != nil {
		return err
	}
	if err := compareGroups(want, got, deep); err != nil || !deep {
		return err
	}
	return compareProv(want, got)
}

// compareTables compares two tables' labels and cells.
func compareTables(a, b *engine.Table) error {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := range a.NumCols() {
		if a.Schema()[c].Name != b.Schema()[c].Name {
			return fmt.Errorf("column %d label %q vs %q", c, a.Schema()[c].Name, b.Schema()[c].Name)
		}
		for r := range a.NumRows() {
			if va, vb := a.Value(r, c), b.Value(r, c); !sameCell(va, vb) {
				return fmt.Errorf("cell (%d,%d): %#v vs %#v", r, c, va, vb)
			}
		}
	}
	return nil
}

// compareGroups compares keys, FirstRow, row counts and aggregate states,
// and with lineage every group's lineage.
func compareGroups(want, got *Result, lineage bool) error {
	if len(want.Groups) != len(got.Groups) {
		return fmt.Errorf("%d vs %d groups", len(want.Groups), len(got.Groups))
	}
	for gi, w := range want.Groups {
		g := got.Groups[gi]
		if len(w.Key) != len(g.Key) || w.FirstRow != g.FirstRow || w.Rows != g.Rows || len(w.Aggs) != len(g.Aggs) {
			return fmt.Errorf("group %d: %d keys, first row %d, %d rows vs %d, %d, %d", gi, len(w.Key), w.FirstRow, w.Rows, len(g.Key), g.FirstRow, g.Rows)
		}
		for k := range w.Key {
			if !sameCell(w.Key[k], g.Key[k]) {
				return fmt.Errorf("group %d key %d: %#v vs %#v", gi, k, w.Key[k], g.Key[k])
			}
		}
		for ai := range w.Aggs {
			if a, b := w.Aggs[ai].Result(), g.Aggs[ai].Result(); !sameCell(a, b) {
				return fmt.Errorf("group %d aggregate %d: %#v vs %#v", gi, ai, a, b)
			}
		}
	}
	if !lineage {
		return nil
	}
	wv, gv, err := provs(want, got)
	seen := make([]bool, got.Source.NumRows()) // the lineages partition the rows that passed
	for ri := 0; err == nil && ri < len(got.Groups); ri++ {
		if w, l := wv.Rows(ri), gv.Rows(ri); !slices.Equal(w, l) || len(l) != got.Groups[ri].Rows {
			err = fmt.Errorf("group %d lineage %v, want %v", ri, l, w)
		}
		for _, r := range gv.Rows(ri) {
			if seen[r] {
				err = fmt.Errorf("row %d is in two groups' lineage", r)
			}
			seen[r] = true
		}
	}
	return err
}

func provs(want, got *Result) (*Provenance, *Provenance, error) {
	wv, werr := want.Provenance(context.Background())
	gv, gerr := got.Provenance(context.Background())
	return wv, gv, errors.Join(werr, gerr)
}

// compareProv compares every output row's lineage bitset and every
// aggregate's argument view.
func compareProv(want, got *Result) error {
	wv, gv, err := provs(want, got)
	if err != nil {
		return err
	}
	for ri := range want.Groups {
		wb, gb := wv.Bits(ri), gv.Bits(ri)
		if wb.Len() != gb.Len() || !slices.Equal(wb.Words(), gb.Words()) || !slices.Equal(gb.Rows(), wv.Rows(ri)) {
			return fmt.Errorf("group %d lineage bits %v (len %d), want %v (len %d)", ri, gb.Rows(), gb.Len(), wb.Rows(), wb.Len())
		}
	}
	if err := boxedViews(want, wv); err != nil {
		return err
	}
	for ord := range want.aggItems {
		wa, werr := wv.ArgView(ord)
		ga, gerr := gv.ArgView(ord)
		if werr != nil || gerr != nil {
			if !viewless(want, ord, werr) || !viewless(want, ord, gerr) {
				return fmt.Errorf("aggregate %d view: %v, reference %v", ord, gerr, werr)
			}
			continue
		}
		if len(wa.Vals) != len(ga.Vals) || !slices.Equal(wa.Null.Words(), ga.Null.Words()) {
			return fmt.Errorf("aggregate %d view covers %d rows (%d NULL), want %d (%d NULL)", ord, len(ga.Vals), ga.Null.Count(), len(wa.Vals), wa.Null.Count())
		}
		for r := range wa.Vals {
			if w, g := wa.Vals[r], ga.Vals[r]; math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
				return fmt.Errorf("aggregate %d view row %d: %v, want %v", ord, r, g, w)
			}
		}
	}
	return nil
}

// boxedViews holds res's argument views to the boxed evaluation of each
// aggregate's argument on every row (NULL: a set bit over a NaN). A view
// of dictionary codes, count(DISTINCT <string column>)'s, need only be
// one-to-one with the strings.
func boxedViews(res *Result, v *Provenance) error {
	row := make([]engine.Value, res.Source.NumCols())
	for ord, arg := range res.aggArgs {
		av, err := v.ArgView(ord)
		if err != nil {
			if viewless(res, ord, err) {
				continue
			}
			return fmt.Errorf("aggregate %d view: %w", ord, err)
		}
		if n := res.Source.NumRows(); len(av.Vals) != n || av.Null.Len() != n {
			return fmt.Errorf("aggregate %d: view covers %d rows (%d NULL bits) of %d", ord, len(av.Vals), av.Null.Len(), n)
		}
		dict := argSource(res.Source.Schema(), res.aggCall(ord)).kind == argDict
		codes, strs := map[float64]string{}, map[string]bool{}
		for r := range res.Source.NumRows() {
			want, null := 1.0, false
			if arg != nil {
				res.Source.RowInto(r, row)
				x := must(arg.Eval(row))
				if want, null = x.Float(), x.IsNull(); null {
					want = math.NaN()
				} else if dict {
					if s, ok := codes[av.Vals[r]]; ok && s != x.S || !ok && strs[x.S] {
						return fmt.Errorf("aggregate %d row %d: code %v and %q are not one-to-one", ord, r, av.Vals[r], x.S)
					}
					codes[av.Vals[r]], strs[x.S], want = x.S, true, av.Vals[r]
				}
			}
			if g := av.Vals[r]; av.Null.Get(r) != null || math.Float64bits(g) != math.Float64bits(want) && !(math.IsNaN(g) && math.IsNaN(want)) {
				return fmt.Errorf("aggregate %d row %d: view %v (NULL %v), boxed %v (NULL %v)", ord, r, g, av.Null.Get(r), want, null)
			}
		}
	}
	return nil
}

// viewless is whether err is the one ArgView error there may be:
// errDistinctStrings, for a DISTINCT aggregate whose argument yields a
// string on some row, other than count over a bare string column.
func viewless(res *Result, ord int, err error) bool {
	call := res.aggCall(ord)
	if _, col := call.Arg.(*expr.Col); !errors.Is(err, errDistinctStrings) || !call.Distinct || col && call.Name == "count" {
		return false
	}
	row := make([]engine.Value, res.Source.NumCols())
	for r := range res.Source.NumRows() {
		res.Source.RowInto(r, row)
		if v, err := call.Arg.Eval(row); err == nil && v.T == engine.TString {
			return true
		}
	}
	return false
}

func fatalIf(t *testing.T, label string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// check fails t unless got is want under the one check.
func check(t *testing.T, label string, want, got *Result) {
	t.Helper()
	fatalIf(t, label, compare(want, got, true))
}

// mustProv returns r's provenance, building it where it is not built.
func mustProv(r *Result) *Provenance { return must(r.Provenance(context.Background())) }

// groupLineage is output row ri's lineage, through r's provenance.
func groupLineage(r *Result, ri int) []int { return mustProv(r).Rows(ri) }

func mustParse(sql string) *sqlparse.SelectStmt { return must(sqlparse.Parse(sql)) }

// runRef is the oracle side of every differential test in this package.
func runRef(tbl *engine.Table, stmt *sqlparse.SelectStmt) (*Result, error) {
	return RunReference(context.Background(), tbl, stmt)
}

// assertPipeline fails unless res came from a fresh run of the grouped
// pipeline, the only way a grouped statement may execute.
func assertPipeline(t *testing.T, label string, res *Result) {
	t.Helper()
	if !res.Plan.Vectorized || res.Plan.Fallback != "" {
		t.Fatalf("%s: grouped statement left the pipeline: %+v", label, res.Plan)
	}
}

// runBoth runs sql on the pipeline and on the reference scan, checks the
// two under the one check, and returns the pipeline's result.
func runBoth(t *testing.T, tbl *engine.Table, sql string) *Result {
	t.Helper()
	return runOracle(t, func() int { return 0 }, tbl, tbl, sql)
}

// runOracle runs sql on tbl and checks it against the reference over
// oracle; afterwards pinned must report no chunk pinned.
func runOracle(t *testing.T, pinned func() int, tbl, oracle *engine.Table, sql string) *Result {
	t.Helper()
	ref, err := runRef(oracle, mustParse(sql))
	fatalIf(t, sql+" (reference)", err)
	res, err := Run(t.Context(), tbl, mustParse(sql))
	fatalIf(t, sql, err)
	check(t, sql, ref, res)
	if n := pinned(); n != 0 {
		t.Fatalf("%d chunks still pinned after [%s]", n, sql)
	}
	return res
}

// genStep is one version of the table: rows appended to the one before
// (step 0: the initial rows), then a retention pass down to keep rows.
// Its result is Run's at step 0, else an advance of the step before's
// (with branch, of the one before that). With cancel the call, then the
// first provenance read of a fresh result of it, are cancelled at each
// failpoint and retried first; unread leaves the provenance unbuilt.
type genStep struct {
	rows                   [][]engine.Value
	keep                   int
	cancel, branch, unread bool
}

type genCase struct {
	seed    int64
	segBits uint
	ooc     bool
	stmt    *sqlparse.SelectStmt
	steps   []genStep
	check   func(*Result) error
}

func (c *genCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d, %d-row segments, out of core %v\n%s\n", c.seed, 1<<c.segBits, c.ooc, c.stmt)
	for k, s := range c.steps {
		fmt.Fprintf(&b, "step %d: +%d rows, keep %d, cancel %v, branch %v, unread %v\n", k, len(s.rows), s.keep, s.cancel, s.branch, s.unread)
		for _, r := range s.rows[:min(len(s.rows), 8)] {
			fmt.Fprintf(&b, "\t%v\n", r)
		}
	}
	return b.String()
}

// evolve appends rows to t, then retains keep rows if keep > 0.
func evolve(t *engine.Table, rows [][]engine.Value, keep int) (_ *engine.Table, err error) {
	if len(rows) > 0 {
		t, err = t.AppendBatch(rows)
	}
	if keep > 0 && err == nil {
		t, _, err = t.RetainTail(engine.RetentionPolicy{MaxRows: keep})
	}
	return t, err
}

func oocOpts(fs vfs.FS, cacheBytes int64) store.Options {
	return store.Options{SyncEvery: 1, MaxResidentBytes: cacheBytes, Logf: func(string, ...any) {}, FS: fs}
}

// run plays c, checking every step, and records the features its steps
// reached in seen.
func (c *genCase) run(seen map[string]bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	oracle, lazy := must(engine.NewTableSeg("p", genSchema, c.segBits)), (*engine.Table)(nil)
	pinned := func() int { return 0 }
	if c.ooc {
		// Behind a 4 KiB pool every sealed segment faults in on demand, and
		// is soon evicted again.
		var st *store.DB
		st, lazy = reopen(writeStore(genSchema, c.segBits, c.steps[0].rows), 4096)
		pinned = st.PoolPinned
		defer func() {
			if n := pinned(); n != 0 && err == nil {
				err = fmt.Errorf("%d chunks still pinned", n)
			}
			st.Close()
		}()
	}
	grouped := isGrouped(c.stmt)
	var results, wants []*Result
	for k, s := range c.steps {
		oracle = must(evolve(oracle, s.rows, s.keep))
		if c.ooc { // the store holds step 0's rows
			lazy = must(evolve(lazy, s.rows[:min(k, 1)*len(s.rows)], s.keep))
		}
		tbl := cmp.Or(lazy, oracle)
		var parent *Result
		if k > 0 {
			parent = results[k-1]
		}
		if s.branch && k >= 2 {
			parent, seen["branch"] = results[k-2], true
		}
		call := func(ctx context.Context) (*Result, error) {
			if parent == nil {
				return Run(ctx, tbl, c.stmt)
			}
			return AdvanceCtx(ctx, parent, tbl)
		}
		want, wantErr := runRef(oracle, c.stmt)
		if s.cancel && wantErr == nil {
			calls, err := cancelEach(call, want, pinned, seen)
			if err != nil {
				return fmt.Errorf("step %d: %w", k, err)
			}
			kind := "cancelled:advance"
			if parent == nil {
				kind = "cancelled:run"
			}
			// Over default segments, a scan of more than 2×ctxCheckRows rows
			// polls inside its first fold block, and each poll was cancelled.
			inBlock := parent == nil && c.segBits == engine.DefaultSegmentBits && tbl.NumRows() > 2*ctxCheckRows
			for f, on := range map[string]bool{"cancelled": calls > 0, kind: calls > 0, "inblock": calls > 0 && inBlock} {
				seen[f] = seen[f] || on
			}
		}
		got, gotErr := call(context.Background())
		if (gotErr != nil) != (wantErr != nil) {
			return fmt.Errorf("step %d: error %v, reference error %v", k, gotErr, wantErr)
		}
		if wantErr != nil {
			seen["error"] = true
			return nil // an erring step has no result to advance
		}
		deep := !s.unread || k == len(c.steps)-1
		if anc := got.anc.Load(); anc != nil && deep {
			// The first read extends every view the ancestor it records holds.
			views, v := slices.Clone(anc.views), must(got.Provenance(context.Background()))
			for ord, av := range views {
				ext := v.views[ord]
				seen["extended"] = seen["extended"] || av != nil && ext != nil
				if _, err := v.ArgView(ord); av != nil && ext == nil && !viewless(got, ord, err) {
					return fmt.Errorf("step %d: the first read did not extend view %d: %v", k, ord, err)
				}
			}
		}
		if err := compare(want, got, deep); err != nil {
			return fmt.Errorf("step %d: %w", k, err)
		}
		err := plan(got, parent, results)
		if !grouped {
			err = nil // a projection re-runs: it has no plan to hold
		}
		if err == nil && parent != nil && parent.Source.NumRows() == 0 && got.Plan.Incremental {
			err = sameAsRun(got)
			seen["fromempty"] = seen["fromempty"] || got.Plan.Shards >= 2
		}
		if err == nil && c.check != nil {
			err = c.check(got)
		}
		if err != nil {
			return fmt.Errorf("step %d: %v: %+v", k, err, got.Plan)
		}
		p := got.Plan
		for f, on := range map[string]bool{
			"incremental": p.Incremental, "retention": strings.HasPrefix(p.Fallback, "retention:"),
			"empty": p.Incremental && len(s.rows) == 0, "unread": s.unread && k < len(c.steps)-1,
			"masked": p.MaskedAgg, "kernel": p.KeyKernels > 0, "residual": p.ResidualConjuncts > 0,
			"shortcircuit": p.FilterShortCircuited > 0, "lowered": c.stmt.Where != nil && p.WhereLowered,
			"faulted": p.ChunksFaulted > 0, "dict": k > 0 && oracle.Dict(3).NumValues() > 5,
			"beyond":    parent != nil && len(parent.Groups) == 0 && tbl.Base() >= parent.Source.Base()+parent.Source.NumRows(),
			"stringkey": computedStringKey(c.stmt, got), "projection": !grouped, "wide": len(c.stmt.GroupBy) >= 5,
			"born": p.Incremental && len(got.allGroups) > len(parent.allGroups), fmt.Sprint("keys", len(c.stmt.GroupBy)): true,
		} {
			seen[f] = seen[f] || on
		}
		for _, item := range c.stmt.Items {
			if item.IsAgg() && item.Agg.Distinct {
				seen["distinct"], seen["distinct:"+item.Agg.Name], seen["distinct:"+argFeature(item.Agg.Arg)] = true, true, true
			}
		}
		results, wants = append(results, got), append(wants, want)
	}
	// Copy-on-write: every earlier result still answers for its version.
	for k, res := range results {
		if err := compare(wants[k], res, true); err != nil {
			return fmt.Errorf("step %d, after the last: %w", k, err)
		}
	}
	return nil
}

// cancelEach cancels call, then the first provenance read of a fresh
// result of it, at each of their failpoints (chaos.CancelEach). A
// cancelled build publishes nothing: the next read builds again, so
// cancelled at its first poll it fails too, and the retry reads the
// cancelled result. Every retry goes through compare against want and
// leaves no chunk pinned.
func cancelEach(call func(context.Context) (*Result, error), want *Result, pinned func() int, seen map[string]bool) (calls int, _ error) {
	check := func(_, got *Result, err error) error {
		if n := pinned(); err != nil || n != 0 {
			return cmp.Or(err, fmt.Errorf("%d chunks pinned", n))
		}
		return compare(want, got, true)
	}
	calls, err := chaos.CancelEach(call, check)
	if err != nil {
		return 0, fmt.Errorf("call: %w", err)
	}
	var r *Result
	derived := false
	read := func(ctx context.Context) (*Result, error) {
		if r == nil {
			r = must(call(context.Background()))
		}
		derived = derived || r.anc.Load() != nil
		if _, err := r.Provenance(ctx); err != nil {
			if _, again := r.Provenance(chaos.CancelAfter(0)); !errors.Is(again, context.Canceled) {
				return nil, fmt.Errorf("a cancelled build published: the next read returned %v", again)
			}
			return nil, err
		}
		got := r
		r = nil
		return got, nil
	}
	builds, err := chaos.CancelEach(read, check)
	if err != nil {
		return 0, fmt.Errorf("provenance: %w", err)
	}
	seen["cancelled:provenance"] = seen["cancelled:provenance"] || builds > 0
	seen["cancelled:derived"] = seen["cancelled:derived"] || builds > 0 && derived
	return calls, nil
}

// argFeature names an aggregate argument as a feature: no spaces.
func argFeature(arg expr.Expr) string { return strings.ReplaceAll(arg.String(), " ", "") }

// sameAsRun holds res, an advance from an empty result, to a fresh Run
// over its source: Run is that advance, so the two fold the same blocks
// into the same states, bit for bit.
func sameAsRun(res *Result) error {
	fresh, err := Run(context.Background(), res.Source, res.Stmt)
	if err != nil || fresh.Plan.Shards != res.Plan.Shards || len(fresh.allGroups) != len(res.allGroups) {
		return fmt.Errorf("advanced from empty: %d fold blocks, %d groups; a fresh run %v: %+v", res.Plan.Shards, len(res.allGroups), err, fresh)
	}
	for gi, g := range fresh.allGroups {
		for ai, st := range g.Aggs {
			if a, b := res.allGroups[gi].Aggs[ai].Result(), st.Result(); !sameCell(a, b) {
				return fmt.Errorf("group %d aggregate %d: %#v advanced from empty, %#v fresh", gi, ai, a, b)
			}
		}
	}
	return nil
}

// computedStringKey is whether a computed GROUP BY key took a string.
func computedStringKey(stmt *sqlparse.SelectStmt, res *Result) bool {
	for k, g := range stmt.GroupBy {
		if _, col := g.(*expr.Col); !col && slices.ContainsFunc(res.Groups, func(gr *Group) bool { return gr.Key[k].T == engine.TString }) {
			return true
		}
	}
	return false
}

// plan holds a grouped step's plan to its history: a fresh run is the
// pipeline's; an advance carries (Incremental, no Fallback) unless the
// retention base moved, when it re-runs and says so; every step plans
// the key kernels and the masked fold the first one did.
func plan(got, parent *Result, results []*Result) error {
	p := got.Plan
	switch {
	case !p.Vectorized:
		return errors.New("left the pipeline")
	case parent == nil && (p.Incremental || p.Fallback != ""):
		return errors.New("a fresh run carried")
	case parent != nil && parent.Source.Base() != got.Source.Base():
		if p.Incremental || !strings.HasPrefix(p.Fallback, "retention:") {
			return errors.New("an advance across a moved base must re-run with a retention reason")
		}
	case parent != nil && (!p.Incremental || p.Fallback != ""):
		return errors.New("an advance within one base must carry")
	}
	if len(results) > 0 && (p.KeyKernels != results[0].Plan.KeyKernels || p.MaskedAgg != results[0].Plan.MaskedAgg) {
		return fmt.Errorf("planned differently from the first run's %+v", results[0].Plan)
	}
	return nil
}

// shrink returns the smallest variant of failing case c it finds that
// still fails: history steps dropped first, then WHERE conjuncts, then
// each step's rows halved.
func shrink(c *genCase) *genCase {
	try := func(edit func(d *genCase)) bool {
		d := *c
		d.steps = slices.Clone(c.steps)
		if edit(&d); d.run(map[string]bool{}) == nil {
			return false
		}
		c = &d
		return true
	}
	for k := len(c.steps) - 1; k >= 1; k-- {
		try(func(d *genCase) { d.steps = slices.Delete(d.steps, k, k+1) })
	}
	for parts, i := flattenAnd(c.stmt.Where, nil), 0; c.stmt.Where != nil && len(parts) > 1 && i < len(parts); i++ {
		rest := slices.Delete(slices.Clone(parts), i, i+1)
		if try(func(d *genCase) { s := *c.stmt; s.Where = andOf(rest); d.stmt = &s }) {
			parts, i = rest, -1
		}
	}
	for k := range c.steps {
		for rows := c.steps[k].rows; len(rows) > 1; rows = c.steps[k].rows {
			if !try(func(d *genCase) { d.steps[k].rows = rows[:len(rows)/2] }) && !try(func(d *genCase) { d.steps[k].rows = rows[len(rows)/2:] }) {
				break
			}
		}
	}
	return c
}

// dims are the dimensions a profile's cases draw from.
type dims uint

const (
	dAppend dims = 1 << iota // a history of 1–4 appends
	dRetain                  // retention passes
	dBranch                  // a result advanced twice
	dCancel                  // a call and its first read cancelled at every failpoint, then retried
	dOOC                     // out of core behind a 4 KiB pool
	dEdge                    // enginetest.EdgeRow cells
	dBlock                   // more than 2×ctxCheckRows initial rows in default segments
	// dAll is every dimension but dBlock, whose big tables only the
	// matrix profiles draw.
	dAll = dAppend | dRetain | dBranch | dCancel | dOOC | dEdge
)

// genProfile is one use of the generator: seeds cases drawn from dims
// (force's in every case), from a table of no rows with fromEmpty, each
// statement edited by stmt, every step held to check too, and the
// features its cases must reach.
type genProfile struct {
	seeds       int
	dims, force dims
	fromEmpty   bool
	stmt        func(rng *rand.Rand, s *sqlparse.SelectStmt)
	check       func(*Result) error
	want        string
}

func (p genProfile) has(d dims, rng *rand.Rand, oneIn int) bool {
	return p.force&d != 0 || p.dims&d != 0 && rng.Intn(oneIn) == 0
}

func (p genProfile) newCase(seed int64) *genCase {
	rng := rand.New(rand.NewSource(seed))
	geometries := []uint{engine.MinSegmentBits, 8, engine.DefaultSegmentBits}
	c := &genCase{seed: seed, check: p.check, segBits: geometries[rng.Intn(3)]}
	block := p.has(dBlock, rng, 8)
	if c.ooc = !block && p.has(dOOC, rng, 2); c.ooc {
		c.segBits = geometries[rng.Intn(2)]
	} else if block {
		c.segBits = engine.DefaultSegmentBits
	}
	edge := p.has(dEdge, rng, 2)
	if c.stmt = randStmt(rng); p.stmt != nil {
		p.stmt(rng, c.stmt)
	}
	nsteps, vocab := 0, 5
	if p.has(dAppend, rng, 1) {
		nsteps = 1 + rng.Intn(4)
	}
	tbl := must(engine.NewTableSeg("p", genSchema, c.segBits))
	for k := 0; k <= nsteps; k++ {
		n := rng.Intn(400)
		switch {
		case k == 0 && p.fromEmpty:
			n = 0
		case k == 0 && block:
			n = 2*ctxCheckRows + 1 + rng.Intn(ctxCheckRows)
		case k == 0 && c.segBits == engine.DefaultSegmentBits && rng.Intn(4) == 0:
			n = 3 * blockRows // scan blocks inside one segment
		case k > 0 && rng.Intn(8) == 0:
			n = 0
		case k > 0 && c.segBits != engine.DefaultSegmentBits:
			n = enginetest.BoundaryBatchSize(rng, tbl)
		}
		vocab = min(vocab+3*min(k, 1), len(genVocab))
		s := genStep{rows: genRows(rng, n, vocab, edge), branch: k >= 2 && p.has(dBranch, rng, 3), unread: k < nsteps && rng.Intn(5) == 0}
		s.cancel = p.has(dCancel, rng, 3)
		if tbl = must(evolve(tbl, s.rows, 0)); p.has(dRetain, rng, 2) {
			if nt, dropped := enginetest.RetainStep(rng, tbl); dropped > 0 {
				tbl, s.keep = nt, nt.NumRows()
			}
		}
		c.steps = append(c.steps, s)
	}
	return c
}

// differential runs p's cases; a failing one is shrunk and printed.
func differential(t *testing.T, p genProfile) {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	seen := map[string]bool{}
	for k := range p.seeds {
		if c := p.newCase(int64(h.Sum64()>>8) + int64(k)); c.run(seen) != nil {
			c = shrink(c)
			t.Fatalf("%v\nshrunk to:\n%s", c.run(map[string]bool{}), c)
		}
	}
	for _, f := range strings.Fields(p.want) {
		if !seen[f] {
			t.Errorf("harness coverage: no case reached %q (reached %v)", f, seen)
		}
	}
}

// whereOf sets every statement's WHERE to one of shape's.
func whereOf(shape func(*rand.Rand) expr.Expr) func(*rand.Rand, *sqlparse.SelectStmt) {
	return func(rng *rand.Rand, s *sqlparse.SelectStmt) { s.Where = shape(rng) }
}

// maskedStmt is a global aggregation of float-fed aggregates under a
// WHERE: the shape the masked fold takes.
func maskedStmt(rng *rand.Rand, s *sqlparse.SelectStmt) {
	*s = sqlparse.SelectStmt{From: "p", Limit: -1, Where: randWhere(rng, 1+rng.Intn(2))}
	for k := range 1 + rng.Intn(3) {
		call := &sqlparse.AggCall{Name: aggNames[rng.Intn(len(aggNames))], Arg: expr.NewCol(parityCols[rng.Intn(3)])}
		if rng.Intn(8) == 0 {
			call = &sqlparse.AggCall{Name: "count", Star: true}
		}
		s.Items = append(s.Items, sqlparse.SelectItem{Agg: call, Alias: fmt.Sprintf("a%d", k)})
	}
}

func TestDifferential(t *testing.T) {
	differential(t, genProfile{seeds: 80, dims: dAll, want: "incremental retention empty unread branch cancelled error " +
		"projection wide distinct masked kernel residual shortcircuit lowered faulted dict stringkey"})
}

// Every GROUP BY width from 0 to 6, every aggregate and argument under
// DISTINCT.
func TestVectorScalarParity(t *testing.T) {
	want := "keys0 keys1 keys2 keys3 keys4 keys5 keys6 kernel stringkey residual lowered masked"
	for _, a := range argTexts {
		want += " distinct:" + argFeature(mustExpr(a))
	}
	differential(t, genProfile{seeds: 150, dims: dEdge, want: want + " distinct:" + strings.Join(aggNames, " distinct:")})
}

func TestAdvanceParity(t *testing.T) {
	differential(t, genProfile{seeds: 40, dims: dBranch, force: dAppend, want: "incremental branch empty distinct dict"})
}

func TestAdvanceRetentionParity(t *testing.T) {
	differential(t, genProfile{seeds: 30, force: dAppend | dRetain, want: "incremental retention distinct"})
}

// Advances carry, from one result twice, and groups are born in the
// appended rows.
func TestAdvanceIncrementalPlan(t *testing.T) {
	differential(t, genProfile{seeds: 15, force: dAppend | dBranch, want: "incremental branch born"})
}

// Every earlier result still answers for its own version (copy-on-write),
// after advances that branched, were cancelled and retried, or were left
// unread.
func TestAdvanceLeavesOldResultIntact(t *testing.T) {
	differential(t, genProfile{seeds: 15, dims: dCancel, force: dAppend | dBranch, want: "incremental branch cancelled unread"})
}

// The cancellation matrices: a step's Run or AdvanceCtx, then the first
// provenance read of a fresh result of it, cancelled at each failpoint
// and retried (cancelEach). A Run over default segments of more than
// 2×ctxCheckRows rows is cancelled inside its first fold block.
func TestMatrixRun(t *testing.T) {
	differential(t, genProfile{seeds: 40, dims: dEdge | dBlock, force: dCancel, want: "cancelled:run cancelled:provenance inblock"})
}

// A cancelled advance leaves its parent advanceable: the retry carries.
func TestMatrixAdvance(t *testing.T) {
	differential(t, genProfile{seeds: 20, dims: dBranch | dRetain, force: dAppend | dCancel,
		want: "cancelled:advance cancelled:derived incremental retention branch"})
}

// A cancelled build of an advanced result's provenance, which extends
// its ancestor's, publishes nothing; its retry answers the reference's.
func TestMatrixProvenance(t *testing.T) {
	differential(t, genProfile{seeds: 15, force: dAppend | dCancel, want: "cancelled:derived extended"})
}

// Kernel keys over edge cells, one block declined mid-scan, cancelled
// inside a fold block too.
func TestMatrixKeyKernels(t *testing.T) {
	differential(t, genProfile{seeds: 10, dims: dAppend | dBlock, force: dCancel | dEdge, stmt: kernelKeys,
		want: "kernel cancelled:run cancelled:advance inblock"})
}

// A cancelled scan behind a 4 KiB pool releases every chunk it pinned.
func TestMatrixOutOfCorePins(t *testing.T) {
	differential(t, genProfile{seeds: 15, dims: dAppend, force: dCancel | dOOC, want: "faulted cancelled:run cancelled:advance cancelled:provenance"})
}

// Every grouped statement sorts on an aggregate that moves as batches
// land; half HAVING-filter on it.
func TestAdvanceSortCarryParity(t *testing.T) {
	differential(t, genProfile{seeds: 25, dims: dRetain, force: dAppend, want: "incremental",
		stmt: func(rng *rand.Rand, s *sqlparse.SelectStmt) {
			if s.OrderBy, s.Having = []sqlparse.OrderItem{{Expr: expr.NewCol("a0"), Desc: rng.Intn(2) == 0}}, nil; rng.Intn(2) == 0 {
				s.Having = mustExpr("a0 > 0")
			}
			if !isGrouped(s) {
				s.OrderBy, s.Having = nil, nil
			}
		}})
}

// A regression: a result with no groups whose whole window retention
// dropped once panicked in the suffix scan; it re-runs instead.
func TestAdvanceRetentionBeyondWindow(t *testing.T) {
	differential(t, genProfile{seeds: 20, force: dAppend | dRetain, want: "beyond retention",
		stmt: func(rng *rand.Rand, s *sqlparse.SelectStmt) { s.Where = mustExpr("i > 100") }})
}

// Run is Advance from the empty result (sameAsRun), over fold blocks.
func TestAdvanceFromEmptyIsRun(t *testing.T) {
	differential(t, genProfile{seeds: 20, force: dAppend, fromEmpty: true, want: "incremental fromempty"})
}

func TestResidualFilterParityRandomized(t *testing.T) {
	differential(t, genProfile{seeds: 60, dims: dAppend, stmt: whereOf(randResidualAnd), want: "residual shortcircuit"})
}

func TestGreedyFilterParityOutOfCore(t *testing.T) {
	andChain := func(rng *rand.Rand) expr.Expr { return randChain(rng, expr.OpAnd) }
	differential(t, genProfile{seeds: 30, force: dOOC, stmt: whereOf(andChain), want: "shortcircuit faulted"})
}

func TestOutOfCoreQueryParity(t *testing.T) {
	differential(t, genProfile{seeds: 30, dims: dAppend | dEdge, force: dOOC, want: "faulted incremental"})
}

func TestOutOfCoreGroupKeysAcrossAdvance(t *testing.T) {
	differential(t, genProfile{seeds: 20, force: dOOC | dEdge | dAppend | dRetain, want: "incremental retention faulted"})
}

func TestMaskedAggParityRandomized(t *testing.T) {
	differential(t, genProfile{seeds: 40, stmt: maskedStmt, want: "masked"})
}

func TestMaskedAggAdvance(t *testing.T) {
	differential(t, genProfile{seeds: 20, force: dAppend, stmt: maskedStmt, want: "masked incremental"})
}

func TestMaskedAggOutOfCore(t *testing.T) {
	differential(t, genProfile{seeds: 15, force: dOOC, stmt: maskedStmt, want: "masked faulted"})
}

// Every argument source's view (columns of each type, computed values,
// count(*), dictionary codes), fresh and extended by a first read.
func TestArgViewMatchesBoxedEval(t *testing.T) {
	differential(t, genProfile{seeds: 15, dims: dOOC, force: dAppend, want: "incremental faulted extended",
		stmt: func(rng *rand.Rand, s *sqlparse.SelectStmt) {
			*s = *must(sqlparse.Parse("SELECT j, avg(f) AS a, sum(i) AS b, max(t) AS c, count(s) AS d, " +
				"sum(f + j) AS e, avg(f * 2 - i) AS g, count(*) AS n, count(DISTINCT s) AS h FROM p GROUP BY j"))
		}})
}

// Kernel keys over edge cells: an int past 2^53 makes a kernel decline
// its block (a 64-row segment, or one scan block of a default segment).
func TestKeyKernelParity(t *testing.T) {
	differential(t, genProfile{seeds: 40, force: dEdge, stmt: kernelKeys, want: "kernel"})
}

func TestKeyKernelAdvance(t *testing.T) {
	differential(t, genProfile{seeds: 25, force: dAppend | dRetain | dEdge, stmt: kernelKeys, want: "kernel incremental retention"})
}

// kernelKeys makes every GROUP BY key a kernel key: one of groupKeys'
// or of expr.FuzzKeyKernelParity's checked-in inputs.
func kernelKeys(rng *rand.Rand, s *sqlparse.SelectStmt) {
	keys := append(slices.Clip(groupKeys[5:12]), kernelCorpus()...)
	if len(keys) < 17 {
		panic("expr's key kernel corpus did not load")
	}
	for k := range s.GroupBy {
		key := keys[rng.Intn(len(keys))]
		s.GroupBy[k], s.Items[k].Expr = mustExpr(key), mustExpr(key)
	}
}

// kernelCorpus is the expressions of expr.FuzzKeyKernelParity's corpus
// that resolve here: the keys a kernel most likely gets wrong (ints past
// 2^53, zero and fractional bucket widths, / 0, % 0, epoch of an int).
var kernelCorpus = sync.OnceValue(func() (keys []string) {
	files, _ := filepath.Glob("../expr/testdata/fuzz/FuzzKeyKernelParity/*")
	for _, f := range files {
		line := strings.Split(string(must(os.ReadFile(f))), "\n")[1] // string("…")
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if e, perr := sqlparse.ParseExpr(text); err == nil && perr == nil && e.Resolve(genSchema) == nil {
			keys = append(keys, text)
		}
	}
	return keys
})

// Keys past the old four-column limit, whose slots never alias.
func TestWideGroupKeys(t *testing.T) {
	differential(t, genProfile{seeds: 60, dims: dAppend, want: "wide"})
}

// String-valued computed keys beside numeric ones: interned string slots
// never meet numeric ones. The sharded regression: such a key once
// aborted the scan mid-way and re-ran it boxed, reporting success.
func TestVectorPlanStringComputedKey(t *testing.T) {
	differential(t, genProfile{seeds: 40, want: "stringkey"})
}

func TestStringComputedKeySharded(t *testing.T) {
	differential(t, genProfile{seeds: 40, dims: dAppend | dOOC, want: "stringkey"})
}

// LIKE on the string column, alone, negated and under AND/OR/NOT, lowers
// at every step, the dictionary growing, and evaluates no row per row.
func TestLikeLowersParity(t *testing.T) {
	like := func(rng *rand.Rand) expr.Expr {
		l, j := &expr.Like{X: expr.NewCol("s"), Pattern: likePatterns[rng.Intn(len(likePatterns))], Invert: rng.Intn(2) == 0}, mustExpr("j >= 2")
		return []expr.Expr{l, expr.NewBin(expr.OpAnd, j, l), expr.NewBin(expr.OpOr, l, j), expr.NewNot(expr.NewBin(expr.OpOr, l, j))}[rng.Intn(4)]
	}
	differential(t, genProfile{seeds: 30, dims: dRetain, force: dAppend, stmt: whereOf(like), want: "dict retention",
		check: func(res *Result) error {
			if !res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 0 || res.Plan.ResidualRows != 0 {
				return errors.New("LIKE on a string column did not lower")
			}
			return nil
		}})
}
