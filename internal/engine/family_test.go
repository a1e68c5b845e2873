package engine

import (
	"math"
	"testing"
)

func TestColReaderFloats(t *testing.T) {
	tbl := mustAppend(t, MustNewTable("t", NewSchema("x", TFloat, "s", TString)),
		[]Value{NewFloat(1.5), NewString("a")},
		[]Value{Null, NewString("b")},
		[]Value{NewFloat(-2), Null})

	r := tbl.NewColReader(0)
	defer r.Close()
	if v, null := r.Float(0); v != 1.5 || null {
		t.Errorf("Float(0) = %v, %v", v, null)
	}
	if v, null := r.Float(2); v != -2 || null {
		t.Errorf("Float(2) = %v, %v", v, null)
	}
	if v, null := r.Float(1); !math.IsNaN(v) || !null {
		t.Error("NULL row not marked")
	}
	if vals, null := r.Floats(0); len(vals) != 3 || len(null) != 1 || null[0] != 1<<1 {
		t.Errorf("Floats(0) = %v, %b", vals, null)
	}
	if r.Codes(0) != nil {
		t.Error("a numeric column has no codes")
	}
	// A string column has no floats; which a column is, the schema says.
	sr := tbl.NewColReader(1)
	defer sr.Close()
	if vals, null := sr.Floats(0); vals != nil || null != nil {
		t.Error("a string column has no float chunk")
	}

	// A reader opened after an append reads the grown table.
	tbl = mustAppend(t, tbl, []Value{NewFloat(7), NewString("c")})
	r2 := tbl.NewColReader(0)
	defer r2.Close()
	if vals, _ := r2.Floats(0); len(vals) != 4 || vals[3] != 7 {
		t.Errorf("reader of the grown table sees %v", vals)
	}
}

func TestDict(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("s", TString, "x", TInt))
	var rows [][]Value
	for _, s := range []string{"a", "b", "a", "", "c"} {
		rows = append(rows, []Value{NewString(s), NewInt(1)})
	}
	tbl = mustAppend(t, tbl, append(rows, []Value{Null, NewInt(1)})...)

	d := tbl.Dict(0)
	if d.NumValues() != 4 { // a, b, "", c
		t.Fatalf("Values = %v", d.Values())
	}
	r := tbl.NewColReader(0)
	defer r.Close()
	if r.Code(0) != r.Code(2) || r.Code(0) == r.Code(1) {
		t.Errorf("codes = %v %v %v", r.Code(0), r.Code(1), r.Code(2))
	}
	if r.Code(5) != -1 {
		t.Error("NULL row should code as -1")
	}
	if d.Code("a") != r.Code(0) || d.Code("zzz") != -1 || d.Value(r.Code(4)) != "c" {
		t.Error("Code lookup mismatch")
	}
	if none := tbl.Dict(1); none.NumValues() != 0 || none.Code("a") != -1 {
		t.Error("an int column's Dict should be empty")
	}
}

// TestDictBoundedPerVersion checks append-stable dictionary codes,
// copy-on-grow of the shared code map, and that an older handle bounds
// its dictionary at the rows it was taken over.
func TestDictBoundedPerVersion(t *testing.T) {
	// Two batches leave the tail room for four codes, so the next
	// one-row append extends the array the first version reads.
	tbl := MustNewTable("t", NewSchema("s", TString))
	tbl = mustAppend(t, tbl, []Value{NewString("a")}, []Value{NewString("b")})
	tbl = mustAppend(t, tbl, []Value{NewString("a")})
	d1, r1 := tbl.Dict(0), tbl.NewColReader(0)
	defer r1.Close()
	if d1.NumValues() != 2 {
		t.Fatalf("Values = %v", d1.Values())
	}
	grown := mustAppend(t, tbl, []Value{NewString("zz")}) // new string: first appearance at row 3
	rg := grown.NewColReader(0)
	defer rg.Close()
	if &r1.Codes(0)[0] != &rg.Codes(0)[0] || len(rg.Codes(0)) != 4 || len(r1.Codes(0)) != 3 {
		t.Fatal("append re-coded the tail instead of extending it")
	}
	grown = mustAppend(t, grown, []Value{NewString("b")})

	d2, r2 := grown.Dict(0), grown.NewColReader(0)
	defer r2.Close()
	if r2.Code(0) != r1.Code(0) || r2.Code(4) != r1.Code(1) {
		t.Fatal("dictionary codes not append-stable")
	}
	if d2.Code("zz") != 2 || d2.NumValues() != 3 {
		t.Fatalf("new string not coded: %v", d2.Values())
	}
	// The old handle must not see the new string (length-bounded Code).
	if d1.Code("zz") != -1 || d1.NumValues() != 2 {
		t.Fatal("old handle sees a string first appearing after its last row")
	}
}

// TestAppendBatchCopyOnWrite pins the concurrent-ingest contract: the
// batch lands in a new table version, the old version keeps its rows,
// both read the one tail array, and stale appends error.
func TestAppendBatchCopyOnWrite(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("x", TFloat, "s", TString))
	var rows [][]Value
	for i := 0; i < 10; i++ {
		rows = append(rows, []Value{NewFloat(float64(i)), NewString("a")})
	}
	// Eight rows, then two: the second batch doubles the tail to 16.
	tbl = mustAppend(t, mustAppend(t, tbl, rows[:8]...), rows[8:]...)
	old := tbl.NewColReader(0) // opened pre-append
	defer old.Close()
	nt, err := tbl.AppendBatch([][]Value{
		{NewFloat(100), NewString("b")},
		{NewFloat(101), Null},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 10 || nt.NumRows() != 12 {
		t.Fatalf("rows: old %d new %d", tbl.NumRows(), nt.NumRows())
	}
	if !tbl.SameFamily(nt) {
		t.Fatal("AppendBatch result not in the same family")
	}
	if nt.Version() <= tbl.Version() {
		t.Fatalf("version not monotone: %d vs %d", nt.Version(), tbl.Version())
	}
	grown := nt.NewColReader(0)
	defer grown.Close()
	nvals, _ := grown.Floats(0)
	if len(nvals) != 12 || nvals[10] != 100 {
		t.Fatalf("grown version reads %d rows", len(nvals))
	}
	ovals, _ := old.Floats(0)
	if len(ovals) != 10 {
		t.Fatal("old version grew")
	}
	if &ovals[0] != &nvals[0] {
		t.Fatal("the two versions do not share the tail array (room for 16 rows, 12 used)")
	}
	// The old version still reads at its own length after family growth.
	reopened := tbl.NewColReader(0)
	defer reopened.Close()
	if vals, _ := reopened.Floats(0); len(vals) != 10 || vals[9] != 9 {
		t.Fatal("old version's rows wrong after family growth")
	}

	// Appends are linear: the superseded snapshot refuses them.
	if _, err := tbl.AppendBatch([][]Value{{NewFloat(1), NewString("x")}}); err == nil {
		t.Fatal("AppendBatch to stale snapshot should error")
	}
	// A half-bad batch publishes nothing.
	if _, err := nt.AppendBatch([][]Value{{NewFloat(1), NewString("x")}, {NewString("oops"), NewString("y")}}); err == nil {
		t.Fatal("type-bad batch should error")
	}
	if nt.NumRows() != 12 {
		t.Fatal("failed batch changed row count")
	}
}
