package engine

import (
	"math"
	"testing"
)

// TestWithoutOutOfRangeIDs is a regression test: Without used to
// pre-size its keep slice as nrows-len(rows), which panics with a
// negative capacity when the removal set contains more ids than the
// table has rows (e.g. ids from a different, larger table).
func TestWithoutOutOfRangeIDs(t *testing.T) {
	tbl := testTable(t) // 5 rows
	rm := map[int]bool{0: true, 2: true}
	for id := 100; id < 110; id++ { // more out-of-range ids than rows
		rm[id] = true
	}
	wo := tbl.Without(rm)
	if wo.NumRows() != 3 {
		t.Fatalf("Without rows = %d, want 3", wo.NumRows())
	}
	for i := 0; i < wo.NumRows(); i++ {
		if id := wo.Value(i, 0).Int(); id == 1 || id == 3 {
			t.Errorf("Without kept excluded id %d", id)
		}
	}
	// Negative ids must be ignored too.
	if got := tbl.Without(map[int]bool{-1: true}).NumRows(); got != 5 {
		t.Errorf("Without with negative id dropped rows: %d", got)
	}
}

func TestFloatView(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("x", TFloat, "s", TString))
	tbl.MustAppendRow(NewFloat(1.5), NewString("a"))
	tbl.MustAppendRow(Null, NewString("b"))
	tbl.MustAppendRow(NewFloat(-2), Null)

	fv := tbl.FloatView(0)
	if fv == nil {
		t.Fatal("nil FloatView for float column")
	}
	if fv.V(0) != 1.5 || fv.V(2) != -2 {
		t.Errorf("Vals = %v, %v", fv.V(0), fv.V(2))
	}
	if !math.IsNaN(fv.V(1)) || !fv.IsNull(1) || fv.IsNull(0) {
		t.Error("NULL row not marked")
	}
	if tbl.FloatView(1) != nil {
		t.Error("FloatView of string column should be nil")
	}

	// The view is cached until rows are appended.
	if tbl.FloatView(0) != fv {
		t.Error("view not cached")
	}
	tbl.MustAppendRow(NewFloat(7), NewString("c"))
	fv2 := tbl.FloatView(0)
	if fv2 == fv {
		t.Error("stale view returned after append")
	}
	if fv2.Len() != 4 || fv2.V(3) != 7 {
		t.Errorf("rebuilt view len=%d", fv2.Len())
	}
}

func TestDictView(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("s", TString, "x", TInt))
	for _, s := range []string{"a", "b", "a", "", "c"} {
		tbl.MustAppendRow(NewString(s), NewInt(1))
	}
	tbl.MustAppendRow(Null, NewInt(1))

	dv := tbl.DictView(0)
	if dv == nil {
		t.Fatal("nil DictView for string column")
	}
	if dv.NumValues() != 4 { // a, b, "", c
		t.Fatalf("Values = %v", dv.Values())
	}
	if dv.CodeAt(0) != dv.CodeAt(2) || dv.CodeAt(0) == dv.CodeAt(1) {
		t.Errorf("codes = %v %v %v", dv.CodeAt(0), dv.CodeAt(1), dv.CodeAt(2))
	}
	if dv.CodeAt(5) != -1 {
		t.Error("NULL row should code as -1")
	}
	if dv.Code("a") != dv.CodeAt(0) || dv.Code("zzz") != -1 {
		t.Error("Code lookup mismatch")
	}
	if tbl.DictView(1) != nil {
		t.Error("DictView of int column should be nil")
	}
}

// TestFloatViewExtendsIncrementally pins the streaming tentpole at the
// engine layer: a view is the tail chunk itself, so two successive
// versions' views alias one backing array over their shared prefix
// (nothing is re-decoded), and views handed out earlier stay immutable.
func TestFloatViewExtendsIncrementally(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("x", TFloat))
	for i := 0; i < 100; i++ {
		tbl.MustAppendRow(NewFloat(float64(i)))
	}
	tbl.Grow(2)
	fv1 := tbl.FloatView(0)
	tbl.MustAppendRow(Null)
	tbl.MustAppendRow(NewFloat(42))

	fv2 := tbl.FloatView(0)
	if &fv1.Seg(0)[0] != &fv2.Seg(0)[0] {
		t.Fatal("append re-decoded the tail instead of extending it")
	}
	if fv2.Len() != 102 || fv2.V(101) != 42 || !fv2.IsNull(100) || !math.IsNaN(fv2.V(100)) {
		t.Fatalf("extended view wrong: len=%d", fv2.Len())
	}
	// The old snapshot is immutable: same length, same bits — row 100's
	// NULL bit shares its last word.
	if fv1.Len() != 100 || len(fv1.Seg(0)) != 100 {
		t.Fatal("old snapshot changed length after append")
	}
	for _, w := range fv1.NullSeg(0) {
		if w != 0 {
			t.Fatal("old snapshot gained a NULL bit after append")
		}
	}
	// Same-length requests hit the snapshot cache.
	if tbl.FloatView(0) != fv2 {
		t.Fatal("extended view not cached")
	}
}

// TestDictViewExtendsIncrementally checks append-stable dictionary
// codes, copy-on-grow of the shared code map, and that older snapshots
// bound their dictionary at their own length.
func TestDictViewExtendsIncrementally(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("s", TString))
	for _, s := range []string{"a", "b", "a"} {
		tbl.MustAppendRow(NewString(s))
	}
	tbl.Grow(2)
	dv1 := tbl.DictView(0)
	if dv1.NumValues() != 2 {
		t.Fatalf("Values = %v", dv1.Values())
	}
	tbl.MustAppendRow(NewString("zz")) // new string: first appearance at row 3
	tbl.MustAppendRow(NewString("b"))

	dv2 := tbl.DictView(0)
	if &dv1.Seg(0)[0] != &dv2.Seg(0)[0] || len(dv2.Seg(0)) != 5 {
		t.Fatal("append re-coded the tail instead of extending it")
	}
	if dv2.CodeAt(0) != dv1.CodeAt(0) || dv2.CodeAt(4) != dv1.CodeAt(1) {
		t.Fatal("dictionary codes not append-stable")
	}
	if dv2.Code("zz") != 2 || dv2.NumValues() != 3 {
		t.Fatalf("new string not coded: %v", dv2.Values())
	}
	// The old snapshot must not see the new string (length-bounded Code).
	if dv1.Code("zz") != -1 || dv1.NumValues() != 2 {
		t.Fatal("old snapshot sees a string first appearing after its last row")
	}
}

// TestAppendBatchCopyOnWrite pins the concurrent-ingest contract: the
// batch lands in a new table version, the old version keeps its rows,
// both share the incremental view cache, and stale appends error.
func TestAppendBatchCopyOnWrite(t *testing.T) {
	tbl := MustNewTable("t", NewSchema("x", TFloat, "s", TString))
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow(NewFloat(float64(i)), NewString("a"))
	}
	fv := tbl.FloatView(0) // warm the cache pre-append
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
	nfv := nt.FloatView(0)
	if nfv.Len() != 12 || nfv.V(10) != 100 {
		t.Fatalf("grown view len=%d", nfv.Len())
	}
	if fv.Len() != 10 {
		t.Fatal("old snapshot grew")
	}
	if &fv.Seg(0)[0] != &nfv.Seg(0)[0] {
		t.Fatal("the two versions' views do not share the tail array (room for 16 rows, 12 used)")
	}
	// Old view still servable at its own length.
	if ofv := tbl.FloatView(0); ofv.Len() != 10 || ofv.V(9) != 9 {
		t.Fatal("old version's view wrong after family growth")
	}

	// Appends are linear: the superseded snapshot refuses both forms.
	if _, err := tbl.AppendBatch([][]Value{{NewFloat(1), NewString("x")}}); err == nil {
		t.Fatal("AppendBatch to stale snapshot should error")
	}
	if _, err := tbl.AppendRow([]Value{NewFloat(1), NewString("x")}); err == nil {
		t.Fatal("AppendRow to stale snapshot should error")
	}
	// A half-bad batch publishes nothing.
	if _, err := nt.AppendBatch([][]Value{{NewFloat(1), NewString("x")}, {NewString("oops"), NewString("y")}}); err == nil {
		t.Fatal("type-bad batch should error")
	}
	if nt.NumRows() != 12 {
		t.Fatal("failed batch changed row count")
	}
}
