package exec

import (
	"context"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// salesDB builds a small database with known group structure.
func salesDB(t *testing.T) *engine.DB {
	t.Helper()
	tbl := engine.MustNewTable("sales", engine.NewSchema(
		"region", engine.TString,
		"product", engine.TString,
		"amount", engine.TFloat,
		"qty", engine.TInt,
	))
	rows := []struct {
		region, product string
		amount          float64
		qty             int64
	}{
		{"east", "a", 10, 1},
		{"east", "b", 20, 2},
		{"west", "a", 30, 3},
		{"west", "b", 40, 4},
		{"west", "a", 50, 5},
		{"north", "c", -5, 1},
	}
	var vals [][]engine.Value
	for _, r := range rows {
		vals = append(vals, []engine.Value{
			engine.NewString(r.region), engine.NewString(r.product),
			engine.NewFloat(r.amount), engine.NewInt(r.qty)})
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	return db
}

func runSQL(t *testing.T, db *engine.DB, sql string) *Result {
	t.Helper()
	res, err := querySQL(t.Context(), db, sql)
	if err != nil {
		t.Fatalf("querySQL(%q): %v", sql, err)
	}
	return res
}

// querySQL parses sql and runs it with Run over the table of db that its
// FROM names (testgen.Query, which this package's tests cannot import).
func querySQL(ctx context.Context, db *engine.DB, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	src, err := db.Table(stmt.From)
	if err != nil {
		return nil, err
	}
	return Run(ctx, src, stmt)
}

func TestGroupByAggregation(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s, count(*) AS n FROM sales GROUP BY region ORDER BY region")
	if res.NumRows() != 3 {
		t.Fatalf("groups: %d", res.NumRows())
	}
	// ORDER BY region: east, north, west.
	wantRegion := []string{"east", "north", "west"}
	wantSum := []float64{30, -5, 120}
	wantN := []int64{2, 1, 3}
	for i := 0; i < 3; i++ {
		if res.Table.Value(i, 0).Str() != wantRegion[i] {
			t.Errorf("row %d region %v", i, res.Table.Value(i, 0))
		}
		if res.Table.Value(i, 1).Float() != wantSum[i] {
			t.Errorf("row %d sum %v, want %v", i, res.Table.Value(i, 1), wantSum[i])
		}
		if res.Table.Value(i, 2).Int() != wantN[i] {
			t.Errorf("row %d count %v", i, res.Table.Value(i, 2))
		}
	}
}

func TestWhereFilter(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, avg(amount) AS a FROM sales WHERE product = 'a' GROUP BY region ORDER BY region")
	if res.NumRows() != 2 {
		t.Fatalf("groups: %d", res.NumRows())
	}
	// east: avg(10)=10; west: avg(30,50)=40.
	if res.Table.Value(0, 1).Float() != 10 || res.Table.Value(1, 1).Float() != 40 {
		t.Errorf("avgs: %v, %v", res.Table.Value(0, 1), res.Table.Value(1, 1))
	}
}

func TestLineageCapture(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region")
	// east = rows 0,1; north = row 5; west = rows 2,3,4.
	want := [][]int{{0, 1}, {5}, {2, 3, 4}}
	for i, w := range want {
		got := append([]int(nil), groupLineage(res, i)...)
		sort.Ints(got)
		if len(got) != len(w) {
			t.Fatalf("group %d lineage %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Errorf("group %d lineage %v, want %v", i, got, w)
				break
			}
		}
	}
	// Union via Lineage().
	all := res.Lineage([]int{0, 1, 2})
	if len(all) != 6 {
		t.Errorf("union lineage: %v", all)
	}
}

// Property: lineage partitions the WHERE-passing rows — every passing
// row appears in exactly one group.
func TestLineagePartitionProperty(t *testing.T) {
	f := func(amounts []int8) bool {
		if len(amounts) == 0 {
			return true
		}
		vals := make([][]engine.Value, len(amounts))
		for i, a := range amounts {
			vals[i] = []engine.Value{engine.NewInt(int64(i % 5)), engine.NewFloat(float64(a))}
		}
		tbl, err := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat)).AppendBatch(vals)
		if err != nil {
			return false
		}
		db := engine.NewDB()
		db.Register(tbl)
		res, err := querySQL(t.Context(), db, "SELECT k, sum(v) FROM t WHERE v >= 0 GROUP BY k")
		if err != nil {
			return false
		}
		seen := map[int]int{}
		for gi := range res.Groups {
			for _, r := range groupLineage(res, gi) {
				seen[r]++
			}
		}
		// Every passing row exactly once, every failing row zero times.
		for i, a := range amounts {
			want := 0
			if a >= 0 {
				want = 1
			}
			if seen[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGlobalAggregate(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT sum(amount) AS total, min(amount) AS lo, max(amount) AS hi FROM sales")
	if res.NumRows() != 1 {
		t.Fatalf("rows: %d", res.NumRows())
	}
	if res.Table.Value(0, 0).Float() != 145 ||
		res.Table.Value(0, 1).Float() != -5 ||
		res.Table.Value(0, 2).Float() != 50 {
		t.Errorf("global aggs: %v", res.Table.Row(0))
	}
	if len(groupLineage(res, 0)) != 6 {
		t.Errorf("global lineage: %d", len(groupLineage(res, 0)))
	}
}

func TestHavingOnOutput(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s FROM sales GROUP BY region HAVING s > 0 ORDER BY s DESC")
	if res.NumRows() != 2 {
		t.Fatalf("rows after HAVING: %d", res.NumRows())
	}
	if res.Table.Value(0, 1).Float() != 120 {
		t.Errorf("DESC order: %v", res.Table.Value(0, 1))
	}
	// Groups stay parallel through HAVING+ORDER BY.
	if len(groupLineage(res, 0)) != 3 {
		t.Errorf("lineage of top row: %v", groupLineage(res, 0))
	}
}

func TestHavingWithAggregateSyntax(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, count(*) FROM sales GROUP BY region HAVING count(*) > 1 ORDER BY region")
	if res.NumRows() != 2 {
		t.Fatalf("rows: %d", res.NumRows())
	}
}

func TestLimit(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY s LIMIT 1")
	if res.NumRows() != 1 || res.Table.Value(0, 0).Str() != "north" {
		t.Errorf("limit: %v", res.Table.Row(0))
	}
}

func TestProjectionLineage(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, amount FROM sales WHERE amount > 25")
	if res.NumRows() != 3 {
		t.Fatalf("rows: %d", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		if len(groupLineage(res, i)) != 1 {
			t.Errorf("projection lineage %d: %v", i, groupLineage(res, i))
		}
	}
}

func TestGroupByExpression(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT bucket(qty, 2) AS b, count(*) AS n FROM sales GROUP BY bucket(qty, 2) ORDER BY b")
	// qty: 1,2,3,4,5,1 → buckets 0:{1,1},2:{2,3},4:{4,5}
	if res.NumRows() != 3 {
		t.Fatalf("rows: %d", res.NumRows())
	}
	if res.Table.Value(0, 1).Int() != 2 || res.Table.Value(1, 1).Int() != 2 || res.Table.Value(2, 1).Int() != 2 {
		t.Errorf("bucket counts: %v %v %v", res.Table.Value(0, 1), res.Table.Value(1, 1), res.Table.Value(2, 1))
	}
}

func TestUngroupedPlainItemRejected(t *testing.T) {
	db := salesDB(t)
	if _, err := querySQL(t.Context(), db, "SELECT region, sum(amount) FROM sales"); err == nil {
		t.Error("ungrouped plain item accepted")
	}
	if _, err := querySQL(t.Context(), db, "SELECT product, sum(amount) FROM sales GROUP BY region"); err == nil {
		t.Error("plain item not in GROUP BY accepted")
	}
}

// TestGroupByMatchIsStructural: a plain select item must BE one of the
// GROUP BY expressions — names fold case as the resolver folds them,
// literals are values and compare exactly. The old check compared
// lower-cased renderings, so coalesce(region, 'a') passed for GROUP BY
// coalesce(region, 'A') although the two differ on every NULL row; since
// materialize takes such an item from the group's key, accepting it
// would silently output the key instead.
func TestGroupByMatchIsStructural(t *testing.T) {
	db := salesDB(t)
	for _, sql := range []string{
		"SELECT coalesce(region, 'a') AS r, count(*) AS n FROM sales GROUP BY coalesce(region, 'A')",
		"SELECT region LIKE 'E%' AS r, count(*) AS n FROM sales GROUP BY region LIKE 'e%'",
		"SELECT bucket(qty, 2) AS b, count(*) AS n FROM sales GROUP BY bucket(qty, 2.0)",
	} {
		if _, err := querySQL(t.Context(), db, sql); err == nil || !strings.Contains(err.Error(), "must appear in GROUP BY") {
			t.Errorf("%s: want the must-appear-in-GROUP-BY error, got %v", sql, err)
		}
	}
	res := runSQL(t, db, "SELECT COALESCE(Region, 'a') AS r, count(*) AS n FROM sales GROUP BY coalesce(region, 'a') ORDER BY r")
	if res.NumRows() != 3 || res.Table.Value(0, 0).S != "east" || res.Table.Value(2, 1).Int() != 3 {
		t.Errorf("case-folded names: %d rows, first %v", res.NumRows(), res.Table.Row(0))
	}
}

func TestErrors(t *testing.T) {
	db := salesDB(t)
	if _, err := querySQL(t.Context(), db, "SELECT sum(nosuchcol) FROM sales"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := querySQL(t.Context(), db, "SELECT region, sum(amount) FROM sales GROUP BY region HAVING nosuch > 1"); err == nil {
		t.Error("bad HAVING accepted")
	}
}

func TestAggStateAccessors(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s, avg(qty) AS q FROM sales GROUP BY region ORDER BY region")
	ords := res.AggOrdinals()
	if len(ords) != 2 || ords[0] != 1 || ords[1] != 2 {
		t.Fatalf("AggOrdinals: %v", ords)
	}
	if res.AggOrdinalOf(1) != 0 || res.AggOrdinalOf(2) != 1 || res.AggOrdinalOf(0) != -1 {
		t.Error("AggOrdinalOf wrong")
	}
	if v, ok := res.AggFloat(0, 0); !ok || v != 30 {
		t.Errorf("AggFloat: %v %v", v, ok)
	}
	if got, ok := res.Groups[0].Aggs[0].ResultWithoutFloats([]float64{10}, nil); !ok || got != 20 {
		t.Errorf("live sum state without 10: %v %v", got, ok)
	}
	// AggArgValue evaluates the argument on a source row.
	v, err := res.AggArgValue(0, 2) // amount of row 2 = 30
	if err != nil || v.Float() != 30 {
		t.Errorf("AggArgValue: %v %v", v, err)
	}
}

func TestCountStarArgValue(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, count(*) AS n FROM sales GROUP BY region")
	v, err := res.AggArgValue(0, 0)
	if err != nil || v.Int() != 1 {
		t.Errorf("count(*) arg: %v %v", v, err)
	}
}

func TestRunOnFilteredView(t *testing.T) {
	db := salesDB(t)
	src, _ := db.Table("sales")
	stmt, err := sqlparse.Parse("SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(t.Context(), src, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Errorf("rows: %d", res.NumRows())
	}
}

func TestSelectRows(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region")
	neg := res.SelectRows(func(row []engine.Value) bool { return row[1].Float() < 0 })
	if len(neg) != 1 || res.Table.Value(neg[0], 0).Str() != "north" {
		t.Errorf("SelectRows: %v", neg)
	}
}

func TestDuplicateLabelsDisambiguated(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT sum(amount), sum(amount) FROM sales")
	s := res.Table.Schema()
	if s[0].Name == s[1].Name {
		t.Errorf("duplicate labels: %s", s)
	}
}

func TestCountDistinct(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT region, count(DISTINCT product) AS np FROM sales GROUP BY region ORDER BY region")
	// east: {a,b}=2; north: {c}=1; west: {a,b}=2.
	want := []int64{2, 1, 2}
	for i, w := range want {
		if got := res.Table.Value(i, 1).Int(); got != w {
			t.Errorf("row %d count distinct = %d, want %d", i, got, w)
		}
	}
	// Round-trip through the renderer.
	printed := res.Stmt.String()
	if !strings.Contains(printed, "count(DISTINCT product)") {
		t.Errorf("rendering: %s", printed)
	}
	if _, err := sqlparse.Parse(printed); err != nil {
		t.Errorf("reparse: %v", err)
	}
}

func TestSumDistinct(t *testing.T) {
	res := runSQL(t, salesDB(t), "SELECT sum(DISTINCT qty) AS s FROM sales")
	// qty: 1,2,3,4,5,1 → distinct 1..5 → 15.
	if got := res.Table.Value(0, 0).Float(); got != 15 {
		t.Errorf("sum distinct = %v", got)
	}
}

func TestNullAggregateResult(t *testing.T) {
	tbl, err := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat)).
		AppendBatch([][]engine.Value{{engine.NewInt(1), engine.Null}})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res := runSQL(t, db, "SELECT k, sum(v) AS s FROM t GROUP BY k")
	if !res.Table.Value(0, 1).IsNull() {
		t.Errorf("sum of NULLs: %v", res.Table.Value(0, 1))
	}
}
