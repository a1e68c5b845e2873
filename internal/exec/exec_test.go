package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/sqlparse"
)

// TestMain pins the suite-wide no-stranded-goroutines contract:
// cancelled work must release its workers, not park them forever.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// Known answers over a six-row table: these pin what the reference scan
// and the pipeline would agree on wrongly together.

// salesDB builds a small database with known group structure.
func salesDB(t *testing.T) *engine.DB {
	tbl := engine.MustNewTable("sales", engine.NewSchema(
		"region", engine.TString, "product", engine.TString, "amount", engine.TFloat, "qty", engine.TInt))
	var vals [][]engine.Value
	for _, r := range []string{"east a 10 1", "east b 20 2", "west a 30 3", "west b 40 4", "west a 50 5", "north c -5 1"} {
		var region, product string
		var amount float64
		var qty int64
		fmt.Sscan(r, &region, &product, &amount, &qty)
		vals = append(vals, []engine.Value{engine.NewString(region), engine.NewString(product), engine.NewFloat(amount), engine.NewInt(qty)})
	}
	db := engine.NewDB()
	db.Register(must(tbl.AppendBatch(vals)))
	return db
}

func runSQL(db *engine.DB, sql string) *Result { return must(querySQL(context.Background(), db, sql)) }

// querySQL parses sql and runs it with Run over the table of db that its
// FROM names (testgen.Query, which this package's tests cannot import).
func querySQL(ctx context.Context, db *engine.DB, sql string) (*Result, error) {
	stmt := must(sqlparse.Parse(sql))
	return Run(ctx, must(db.Table(stmt.From)), stmt)
}

// rendered is res's table (a row's cells space-separated) and every
// output row's sorted lineage, rows separated by " | ".
func rendered(res *Result) (table, lineage string) {
	var rows, lins []string
	for r := range res.NumRows() {
		rows = append(rows, strings.Trim(fmt.Sprint(res.Table.Row(r)), "[]"))
		lins = append(lins, fmt.Sprint(slices.Sorted(slices.Values(groupLineage(res, r)))))
	}
	return strings.Join(rows, " | "), strings.Join(lins, " | ")
}

// wantTable runs sql over salesDB and holds the rendered output, and the
// lineage where one is given, to the known answers.
func wantTable(t *testing.T, sql, table, lineage string) *Result {
	t.Helper()
	res := runSQL(salesDB(t), sql)
	if gotTable, gotLineage := rendered(res); gotTable != table || lineage != "" && gotLineage != lineage {
		t.Errorf("%s:\n got %s, lineage %s\nwant %s, lineage %s", sql, gotTable, gotLineage, table, lineage)
	}
	return res
}

func TestGroupByAggregation(t *testing.T) {
	wantTable(t, "SELECT region, sum(amount) AS s, count(*) AS n FROM sales GROUP BY region ORDER BY region",
		"east 30 2 | north -5 1 | west 120 3", "")
}

func TestWhereFilter(t *testing.T) {
	wantTable(t, "SELECT region, avg(amount) AS a FROM sales WHERE product = 'a' GROUP BY region ORDER BY region",
		"east 10 | west 40", "")
}

func TestLineageCapture(t *testing.T) {
	res := wantTable(t, "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region",
		"east 30 | north -5 | west 120", "[0 1] | [5] | [2 3 4]")
	if all := res.Lineage([]int{0, 1, 2}); len(all) != 6 {
		t.Errorf("union lineage: %v", all)
	}
}

// Property: lineage partitions the WHERE-passing rows — every passing
// row appears in exactly one group (the generator's compareGroups).
func TestLineagePartitionProperty(t *testing.T) {
	differential(t, genProfile{seeds: 30, dims: dAppend, want: "lowered incremental"})
}

func TestGlobalAggregate(t *testing.T) {
	wantTable(t, "SELECT sum(amount) AS total, min(amount) AS lo, max(amount) AS hi FROM sales", "145 -5 50", "[0 1 2 3 4 5]")
}

// Groups stay parallel to the rows through HAVING and ORDER BY.
func TestHavingOnOutput(t *testing.T) {
	wantTable(t, "SELECT region, sum(amount) AS s FROM sales GROUP BY region HAVING s > 0 ORDER BY s DESC",
		"west 120 | east 30", "[2 3 4] | [0 1]")
}

func TestHavingWithAggregateSyntax(t *testing.T) {
	wantTable(t, "SELECT region, count(*) FROM sales GROUP BY region HAVING count(*) > 1 ORDER BY region", "east 2 | west 3", "")
}

func TestLimit(t *testing.T) {
	wantTable(t, "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY s LIMIT 1", "north -5", "")
}

func TestProjectionLineage(t *testing.T) {
	wantTable(t, "SELECT region, amount FROM sales WHERE amount > 25", "west 30 | west 40 | west 50", "[2] | [3] | [4]")
}

// qty 1,2,3,4,5,1 buckets to 0: {1,1}, 2: {2,3}, 4: {4,5}.
func TestGroupByExpression(t *testing.T) {
	wantTable(t, "SELECT bucket(qty, 2) AS b, count(*) AS n FROM sales GROUP BY bucket(qty, 2) ORDER BY b", "0 2 | 2 2 | 4 2", "")
}

// wantErr holds each statement over salesDB to an error naming want.
func wantErr(t *testing.T, want string, sqls ...string) {
	t.Helper()
	db := salesDB(t)
	for _, sql := range sqls {
		if _, err := querySQL(t.Context(), db, sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an error naming %q, got %v", sql, want, err)
		}
	}
}

func TestUngroupedPlainItemRejected(t *testing.T) {
	wantErr(t, "GROUP BY", "SELECT region, sum(amount) FROM sales", "SELECT product, sum(amount) FROM sales GROUP BY region")
}

// TestGroupByMatchIsStructural: a plain select item must BE one of the
// GROUP BY expressions — names fold case, literals compare exactly. The
// old check compared lower-cased renderings, so coalesce(region, 'a')
// passed for GROUP BY coalesce(region, 'A'), and materialize, which takes
// such an item from the group's key, silently output the key instead.
func TestGroupByMatchIsStructural(t *testing.T) {
	wantErr(t, "must appear in GROUP BY",
		"SELECT coalesce(region, 'a') AS r, count(*) AS n FROM sales GROUP BY coalesce(region, 'A')",
		"SELECT region LIKE 'E%' AS r, count(*) AS n FROM sales GROUP BY region LIKE 'e%'",
		"SELECT bucket(qty, 2) AS b, count(*) AS n FROM sales GROUP BY bucket(qty, 2.0)")
	wantTable(t, "SELECT COALESCE(Region, 'a') AS r, count(*) AS n FROM sales GROUP BY coalesce(region, 'a') ORDER BY r",
		"east 2 | north 1 | west 3", "")
}

func TestErrors(t *testing.T) {
	wantErr(t, "nosuch", "SELECT sum(nosuchcol) FROM sales", "SELECT region, sum(amount) FROM sales GROUP BY region HAVING nosuch > 1")
}

func TestAggStateAccessors(t *testing.T) {
	res := runSQL(salesDB(t), "SELECT region, sum(amount) AS s, avg(qty) AS q FROM sales GROUP BY region ORDER BY region")
	if ords := res.AggOrdinals(); !slices.Equal(ords, []int{1, 2}) {
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
	if v, err := res.AggArgValue(0, 2); err != nil || v.Float() != 30 { // the amount of row 2
		t.Errorf("AggArgValue: %v %v", v, err)
	}
}

func TestCountStarArgValue(t *testing.T) {
	if v, err := runSQL(salesDB(t), "SELECT region, count(*) AS n FROM sales GROUP BY region").AggArgValue(0, 0); err != nil || v.Int() != 1 {
		t.Errorf("count(*) arg: %v %v", v, err)
	}
}

func TestRunOnFilteredView(t *testing.T) {
	src := must(salesDB(t).Table("sales"))
	res := must(Run(t.Context(), src.Select([]int{0, 2, 5}), mustParse("SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region")))
	if table, _ := rendered(res); table != "east 10 | north -5 | west 30" {
		t.Errorf("filtered view: %s", table)
	}
}

func TestSelectRows(t *testing.T) {
	res := runSQL(salesDB(t), "SELECT region, sum(amount) AS s FROM sales GROUP BY region ORDER BY region")
	if neg := res.SelectRows(func(row []engine.Value) bool { return row[1].Float() < 0 }); !slices.Equal(neg, []int{1}) {
		t.Errorf("SelectRows: %v", neg)
	}
}

func TestDuplicateLabelsDisambiguated(t *testing.T) {
	if s := runSQL(salesDB(t), "SELECT sum(amount), sum(amount) FROM sales").Table.Schema(); s[0].Name == s[1].Name {
		t.Errorf("duplicate labels: %s", s)
	}
}

func TestCountDistinct(t *testing.T) {
	res := wantTable(t, "SELECT region, count(DISTINCT product) AS np FROM sales GROUP BY region ORDER BY region",
		"east 2 | north 1 | west 2", "")
	if printed := res.Stmt.String(); !strings.Contains(printed, "count(DISTINCT product)") {
		t.Errorf("rendering: %s", printed)
	} else if _, err := sqlparse.Parse(printed); err != nil {
		t.Errorf("reparse: %v", err)
	}
}

// qty 1,2,3,4,5,1: the distinct values sum to 15.
func TestSumDistinct(t *testing.T) {
	wantTable(t, "SELECT sum(DISTINCT qty) AS s FROM sales", "15", "")
}

func TestNullAggregateResult(t *testing.T) {
	tbl := must(engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat)).
		AppendBatch([][]engine.Value{{engine.NewInt(1), engine.Null}}))
	if res := runBoth(t, tbl, "SELECT k, sum(v) AS s FROM t GROUP BY k"); !res.Table.Value(0, 1).IsNull() {
		t.Errorf("sum of NULLs: %v", res.Table.Value(0, 1))
	}
}
