package engine

import (
	"bytes"
	"strings"
	"testing"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNewTable("t", NewSchema("id", TInt, "name", TString, "score", TFloat))
	rows := []struct {
		id    int64
		name  string
		score float64
	}{
		{1, "a", 1.5}, {2, "b", 2.5}, {3, "a", 3.5}, {4, "c", 4.5}, {5, "a", 5.5},
	}
	var vals [][]Value
	for _, r := range rows {
		vals = append(vals, []Value{NewInt(r.id), NewString(r.name), NewFloat(r.score)})
	}
	return mustAppend(t, tbl, vals...)
}

// mustAppend appends rows to tbl as one batch and returns the grown
// version.
func mustAppend(t *testing.T, tbl *Table, rows ...[]Value) *Table {
	t.Helper()
	nt, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestSchemaValidate(t *testing.T) {
	if err := NewSchema("a", TInt, "b", TString).Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	if err := (Schema{{Name: "a", Type: TInt}, {Name: "A", Type: TInt}}).Validate(); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := (Schema{{Name: "", Type: TInt}}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
	if err := (Schema{{Name: "x", Type: TNull}}).Validate(); err == nil {
		t.Error("null type accepted")
	}
}

func TestSchemaColIndexCaseInsensitive(t *testing.T) {
	s := NewSchema("MoteId", TInt)
	if s.ColIndex("moteid") != 0 || s.ColIndex("MOTEID") != 0 {
		t.Error("case-insensitive lookup failed")
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tbl := testTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 3 {
		t.Fatalf("dims: %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.Value(2, 1).Str(); got != "a" {
		t.Errorf("Value(2,1) = %q", got)
	}
	row := tbl.Row(4)
	if row[0].Int() != 5 || row[2].Float() != 5.5 {
		t.Errorf("Row(4) = %v", row)
	}
	dst := make([]Value, 3)
	tbl.RowInto(0, dst)
	if dst[1].Str() != "a" {
		t.Errorf("RowInto: %v", dst)
	}
}

func TestTableTypeChecking(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("x", TInt))
	if _, err := tbl.AppendBatch([][]Value{{NewString("no")}}); err == nil {
		t.Error("string into int column accepted")
	}
	if _, err := tbl.AppendBatch([][]Value{{NewInt(1), NewInt(2)}}); err == nil {
		t.Error("wrong arity accepted")
	}
	// NULL is storable everywhere.
	if _, err := tbl.AppendBatch([][]Value{{Null}}); err != nil {
		t.Errorf("null rejected: %v", err)
	}
	// Int widens into float columns.
	ft, err := MustNewTable("f", NewSchema("x", TFloat)).AppendBatch([][]Value{{NewInt(3)}})
	if err != nil {
		t.Fatalf("int into float rejected: %v", err)
	}
	if ft.Value(0, 0).T != TFloat {
		t.Errorf("widening type: %v", ft.Value(0, 0).T)
	}
}

func TestTableSelect(t *testing.T) {
	tbl := testTable(t)
	sel := tbl.Select([]int{4, 0})
	if sel.NumRows() != 2 || sel.Value(0, 0).Int() != 5 || sel.Value(1, 0).Int() != 1 {
		t.Errorf("Select: %v", sel)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t)
	var buf bytes.Buffer
	if err := writeCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(&buf, "t2", tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows: %d vs %d", back.NumRows(), tbl.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		for c := 0; c < tbl.NumCols(); c++ {
			if !Equal(back.Value(r, c), tbl.Value(r, c)) {
				t.Errorf("(%d,%d): %v vs %v", r, c, back.Value(r, c), tbl.Value(r, c))
			}
		}
	}
}

func TestCSVInference(t *testing.T) {
	in := "id,name,score\n1,a,1.5\n2,b,\n"
	tbl, err := readCSV(strings.NewReader(in), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	if s[0].Type != TInt || s[1].Type != TString || s[2].Type != TFloat {
		t.Errorf("inferred: %s", s)
	}
	if !tbl.Value(1, 2).IsNull() {
		t.Error("empty float field should be NULL")
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	db.Register(testTable(t))
	if _, err := db.Table("T"); err != nil {
		t.Errorf("case-insensitive lookup: %v", err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table accepted")
	}
	if got := db.Names(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Names: %v", got)
	}
	db.Drop("t")
	if _, err := db.Table("t"); err == nil {
		t.Error("dropped table still present")
	}
}

// TestAppendBatchAllocatesPerColumn pins the append path's allocation
// shape: a batch is type-checked in place and its cells go straight into
// the tail's chunks, so appending 1,000 rows allocates a few arrays a
// column — the new version's headers and NULL words, a grown tail — and
// nothing a row.
func TestAppendBatchAllocatesPerColumn(t *testing.T) {
	schema := NewSchema("i", TInt, "f", TFloat, "g", TFloat, "b", TBool, "t", TTime, "s", TString, "h", TFloat)
	cur := MustNewTable("wide", schema)
	batch := make([][]Value, 1000)
	for r := range batch {
		batch[r] = []Value{NewInt(int64(r)), NewFloat(float64(r) / 4), Null, NewBool(r%2 == 0), NewTimeUnix(int64(r)), NewString([]string{"a", "b", "c"}[r%3]), NewInt(int64(r))}
	}
	perBatch := testing.AllocsPerRun(30, func() {
		var err error
		if cur, err = cur.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4 * len(schema)); perBatch > limit {
		t.Fatalf("a 1,000-row batch allocates %.0f times, want at most %.0f (4 a column)", perBatch, limit)
	}
	if cur.NumRows() != 31*len(batch) {
		t.Fatalf("%d rows", cur.NumRows())
	}
}
