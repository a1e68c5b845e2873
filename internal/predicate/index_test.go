package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
)

// randomTable builds a table with mixed int/float/string columns,
// NULLs, and the occasional NaN.
func randomTable(rng *rand.Rand, rows int) *engine.Table {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"i", engine.TInt,
		"f", engine.TFloat,
		"s", engine.TString,
		"b", engine.TBool,
	))
	strs := []string{"alpha", "beta", "gamma", "delta", ""}
	for r := 0; r < rows; r++ {
		iv := engine.NewInt(int64(rng.Intn(10) - 5))
		fv := engine.NewFloat(float64(rng.Intn(20))/2 - 4)
		sv := engine.NewString(strs[rng.Intn(len(strs))])
		bv := engine.NewBool(rng.Intn(2) == 0)
		if rng.Intn(8) == 0 {
			iv = engine.Null
		}
		if rng.Intn(8) == 0 {
			fv = engine.Null
		} else if rng.Intn(16) == 0 {
			fv = engine.NewFloat(math.NaN())
		}
		if rng.Intn(8) == 0 {
			sv = engine.Null
		}
		if rng.Intn(8) == 0 {
			bv = engine.Null
		}
		tbl.MustAppendRow(iv, fv, sv, bv)
	}
	return tbl
}

// randomClause draws a clause over a random column, sometimes with a
// mismatched value type, an absent value, or a NULL literal.
func randomClause(rng *rand.Rand) Clause {
	cols := []string{"i", "f", "s", "b", "missing"}
	col := cols[rng.Intn(len(cols))]
	op := Op(rng.Intn(6))
	var val engine.Value
	switch rng.Intn(10) {
	case 0:
		val = engine.Null
	case 1:
		val = engine.NewString([]string{"alpha", "beta", "nowhere", ""}[rng.Intn(4)])
	case 2:
		val = engine.NewBool(rng.Intn(2) == 0)
	case 3, 4:
		val = engine.NewInt(int64(rng.Intn(10) - 5))
	default:
		val = engine.NewFloat(float64(rng.Intn(20))/2 - 4)
	}
	return Clause{Col: col, Op: op, Val: val}
}

// TestMatchingBitsetParity is the scalar/vector property test: over
// random tables, subsets and predicates, the vectorized MatchingBitset
// must return exactly the rows MatchingRows returns.
//
// Every third table is a version its family has since retained past
// (tiny segments, head segments dropped by a newer version): its string
// clauses once came back empty, so the string shapes — LIKE among them —
// lead each trial's predicates.
func TestMatchingBitsetParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(200)
		tbl := randomTable(rng, rows)
		if trial%3 == 0 {
			tbl = retainedPast(t, tbl)
		}
		ix := NewIndex(tbl)
		preds := []Predicate{
			New(Clause{Col: "s", Op: OpEq, Val: engine.NewString("alpha")}),
			New(Clause{Col: "s", Op: OpLt, Val: engine.NewString("beta")}),
			New(Clause{Col: "s", Op: OpNeq, Val: engine.NewString("gamma")}),
			New(Clause{Col: "s", Op: OpNeq, Val: engine.Null}), // IS NOT NULL
			New(Clause{Col: "s", Op: OpLike, Val: engine.NewString("%ta")}),
			New(Clause{Col: "s", Op: OpLike, Val: engine.NewString("")},
				Clause{Col: "i", Op: OpGe, Val: engine.NewInt(0)}),
			New(Clause{Col: "s", Op: OpLike, Val: engine.NewString("_e%")}),
			New(Clause{Col: "f", Op: OpLike, Val: engine.NewString("%")}), // not a string column
		}
		for len(preds) < 18 {
			var pred Predicate
			for nc := rng.Intn(4); nc > 0; nc-- {
				pred.Clauses = append(pred.Clauses, randomClause(rng))
			}
			preds = append(preds, pred)
		}
		for _, pred := range preds {

			var subset []int
			var subsetBits *bitset.Bitset
			if rng.Intn(2) == 0 {
				subsetBits = bitset.New(rows)
				for r := 0; r < rows; r++ {
					if rng.Intn(3) == 0 {
						subset = append(subset, r)
						subsetBits.Set(r)
					}
				}
				if subset == nil {
					subset = []int{}
				}
			}

			want := pred.MatchingRows(tbl, subset)
			got := pred.MatchingBitset(ix, subsetBits).Rows()
			if subset == nil && subsetBits == nil {
				// both mean "all rows"
			}
			if !equalRows(want, got) {
				t.Fatalf("trial %d pred %q subset=%v:\n scalar: %v\n vector: %v",
					trial, pred, subset, want, got)
			}
		}
	}
}

// TestMatchingBitsetTruePredicate checks the TRUE predicate matches the
// whole subset on both paths.
func TestMatchingBitsetTruePredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := randomTable(rng, 50)
	ix := NewIndex(tbl)
	var pred Predicate
	if got := pred.MatchingBitset(ix, nil).Count(); got != 50 {
		t.Fatalf("TRUE matched %d of 50", got)
	}
	sub := bitset.FromRows(50, []int{3, 7, 11})
	if got := pred.MatchingBitset(ix, sub).Rows(); !equalRows(got, []int{3, 7, 11}) {
		t.Fatalf("TRUE over subset = %v", got)
	}
}

// retainedPast returns tbl's rows as a version of a 64-row-segment
// family that retention has moved past: 128 more rows were appended and
// the head segments dropped, all on newer versions.
func retainedPast(t *testing.T, tbl *engine.Table) *engine.Table {
	t.Helper()
	old, err := engine.NewTableSeg("t", tbl.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, tbl.NumRows())
	for r := range rows {
		rows[r] = tbl.Row(r)
	}
	if old, err = old.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	more := make([][]engine.Value, 128)
	for i := range more {
		more[i] = rows[i%len(rows)]
	}
	grown, err := old.AppendBatch(more)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 64}); err != nil || stats.DroppedSegments == 0 {
		t.Fatalf("retain: %+v %v", stats, err)
	}
	return old
}

func equalRows(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkMatchingRowsScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomTable(rng, 100_000)
	pred := New(
		Clause{Col: "f", Op: OpGe, Val: engine.NewFloat(-1)},
		Clause{Col: "s", Op: OpEq, Val: engine.NewString("alpha")},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.MatchingRows(tbl, nil)
	}
}

func BenchmarkMatchingBitsetVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomTable(rng, 100_000)
	ix := NewIndex(tbl)
	pred := New(
		Clause{Col: "f", Op: OpGe, Val: engine.NewFloat(-1)},
		Clause{Col: "s", Op: OpEq, Val: engine.NewString("alpha")},
	)
	dst := bitset.New(tbl.NumRows())
	ix.MatchInto(pred, nil, dst) // warm the clause cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.MatchInto(pred, nil, dst)
	}
}

func ExamplePredicate_MatchingBitset() {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TInt))
	for i := 0; i < 6; i++ {
		tbl.MustAppendRow(engine.NewInt(int64(i)))
	}
	ix := NewIndex(tbl)
	p := New(Clause{Col: "x", Op: OpGe, Val: engine.NewInt(4)})
	fmt.Println(p.MatchingBitset(ix, nil).Rows())
	// Output: [4 5]
}

// TestIndexAfterAppend: clause masks cached before rows were appended
// must rebuild instead of panicking on a bitset length mismatch.
func TestIndexAfterAppend(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TInt))
	for i := 0; i < 5; i++ {
		tbl.MustAppendRow(engine.NewInt(int64(i)))
	}
	ix := NewIndex(tbl)
	p := New(Clause{Col: "x", Op: OpGe, Val: engine.NewInt(3)})
	if got := p.MatchingBitset(ix, nil).Rows(); !equalRows(got, []int{3, 4}) {
		t.Fatalf("before append: %v", got)
	}
	tbl.MustAppendRow(engine.NewInt(9))
	if got := p.MatchingBitset(ix, nil).Rows(); !equalRows(got, []int{3, 4, 5}) {
		t.Fatalf("after append: %v", got)
	}
}

// TestIndexExtendsOnAppend pins the incremental clause-mask
// maintenance: after rows are appended, cached masks extend by decoding
// only the suffix (the canonical entry survives), snapshots at the old
// length stay valid, and match results stay parity-exact with the
// scalar evaluator.
func TestIndexExtendsOnAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := randomTable(rng, 150)
	ix := NewIndex(tbl)

	clauses := []Clause{
		{Col: "f", Op: OpGt, Val: engine.NewFloat(0)},
		{Col: "s", Op: OpEq, Val: engine.NewString("beta")},
		{Col: "i", Op: OpLe, Val: engine.NewInt(2)},
	}
	old := make([]*bitset.Bitset, len(clauses))
	entries := make([]*maskEntry, len(clauses))
	for k, c := range clauses {
		old[k] = ix.ClauseBits(c)
		entries[k] = ix.clauses[c]
		if entries[k].built(tbl.SegRows()) != 150 {
			t.Fatalf("clause %d built = %d", k, entries[k].built(tbl.SegRows()))
		}
	}
	oldNonNull := ix.ClauseBits(NonNull("f"))

	// Grow the table in place (the single-owner form) by 60 rows.
	grown := randomTable(rng, 60)
	for r := 0; r < grown.NumRows(); r++ {
		if _, err := tbl.AppendRow(grown.Row(r)); err != nil {
			t.Fatal(err)
		}
	}

	for k, c := range clauses {
		nb := ix.ClauseBits(c)
		if ix.clauses[c] != entries[k] {
			t.Fatalf("clause %d: canonical entry rebuilt instead of extended", k)
		}
		if entries[k].built(tbl.SegRows()) != 210 || nb.Len() != 210 {
			t.Fatalf("clause %d: built=%d len=%d", k, entries[k].built(tbl.SegRows()), nb.Len())
		}
		// Parity with the scalar evaluator over the grown table.
		ci := tbl.Schema().ColIndex(c.Col)
		for r := 0; r < tbl.NumRows(); r++ {
			if nb.Get(r) != c.Matches(tbl.Value(r, ci)) {
				t.Fatalf("clause %d row %d: mask=%v scalar=%v", k, r, nb.Get(r), !nb.Get(r))
			}
		}
		// Old snapshots keep their length and bits.
		if old[k].Len() != 150 {
			t.Fatalf("clause %d: old snapshot grew", k)
		}
		for r := 0; r < 150; r++ {
			if old[k].Get(r) != nb.Get(r) {
				t.Fatalf("clause %d row %d: prefix bit changed", k, r)
			}
		}
		// Length-stamped requests at the old version still work.
		if s := ix.ClauseBitsAt(c, 150); s.Len() != 150 || s.Count() != old[k].Count() {
			t.Fatalf("clause %d: ClauseBitsAt(150) = len %d count %d", k, s.Len(), s.Count())
		}
	}
	if nn := ix.ClauseBits(NonNull("f")); nn.Len() != 210 || oldNonNull.Len() != 150 {
		t.Fatalf("non-NULL masks: new %d old %d", nn.Len(), oldNonNull.Len())
	}
}

// TestIndexSyncRows checks the copy-on-write form: the index follows
// the table family to the newest version through SyncRows (the
// engine.RowSynced hook) and serves masks at the grown length.
func TestIndexSyncRows(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TFloat))
	for i := 0; i < 30; i++ {
		tbl.MustAppendRow(engine.NewFloat(float64(i)))
	}
	ix := NewIndex(tbl)
	c := Clause{Col: "x", Op: OpGe, Val: engine.NewFloat(10)}
	if got := ix.ClauseBits(c).Count(); got != 20 {
		t.Fatalf("initial count = %d", got)
	}
	nt, err := tbl.AppendBatch([][]engine.Value{{engine.NewFloat(50)}, {engine.NewFloat(-1)}})
	if err != nil {
		t.Fatal(err)
	}
	ix.SyncRows(nt)
	if ix.Table() != nt {
		t.Fatal("SyncRows did not rebase onto the newer version")
	}
	b := ix.ClauseBits(c)
	if b.Len() != 32 || b.Count() != 21 {
		t.Fatalf("after sync: len=%d count=%d", b.Len(), b.Count())
	}
	// Syncing to an older version is a no-op.
	ix.SyncRows(tbl)
	if ix.Table() != nt {
		t.Fatal("SyncRows regressed to an older version")
	}
}
