package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	var vals [][]engine.Value
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
		vals = append(vals, []engine.Value{iv, fv, sv, bv})
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		panic(err)
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

// matchingBitset returns the rows of version v satisfying p (within
// subset when non-nil) as a fresh bitset.
func matchingBitset(v *engine.Table, p Predicate, ix *Index, subset *bitset.Bitset) *bitset.Bitset {
	return ix.MatchInto(v, p, subset, bitset.New(v.NumRows()))
}

// indexTable returns the newest table version ix has served.
func indexTable(ix *Index) *engine.Table {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.t
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
			{Clauses: []Clause{{Col: "s", Op: OpEq, Val: engine.NewString("alpha")}}},
			{Clauses: []Clause{{Col: "s", Op: OpLt, Val: engine.NewString("beta")}}},
			{Clauses: []Clause{{Col: "s", Op: OpNeq, Val: engine.NewString("gamma")}}},
			{Clauses: []Clause{{Col: "s", Op: OpNeq, Val: engine.Null}}}, // IS NOT NULL
			{Clauses: []Clause{{Col: "s", Op: OpLike, Val: engine.NewString("%ta")}}},
			{Clauses: []Clause{{Col: "s", Op: OpLike, Val: engine.NewString("")},
				{Col: "i", Op: OpGe, Val: engine.NewInt(0)}}},
			{Clauses: []Clause{{Col: "s", Op: OpLike, Val: engine.NewString("_e%")}}},
			{Clauses: []Clause{{Col: "f", Op: OpLike, Val: engine.NewString("%")}}}, // not a string column
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
			got := matchingBitset(tbl, pred, ix, subsetBits).Rows()
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
	if got := matchingBitset(tbl, pred, ix, nil).Count(); got != 50 {
		t.Fatalf("TRUE matched %d of 50", got)
	}
	sub := bitset.FromRows(50, []int{3, 7, 11})
	if got := matchingBitset(tbl, pred, ix, sub).Rows(); !equalRows(got, []int{3, 7, 11}) {
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
	pred := Predicate{Clauses: []Clause{
		{Col: "f", Op: OpGe, Val: engine.NewFloat(-1)},
		{Col: "s", Op: OpEq, Val: engine.NewString("alpha")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.MatchingRows(tbl, nil)
	}
}

func BenchmarkMatchingBitsetVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomTable(rng, 100_000)
	ix := NewIndex(tbl)
	pred := Predicate{Clauses: []Clause{
		{Col: "f", Op: OpGe, Val: engine.NewFloat(-1)},
		{Col: "s", Op: OpEq, Val: engine.NewString("alpha")},
	}}
	dst := bitset.New(tbl.NumRows())
	ix.MatchInto(tbl, pred, nil, dst) // warm the clause cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.MatchInto(tbl, pred, nil, dst)
	}
}

func ExampleIndex_MatchInto() {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TInt))
	var rows [][]engine.Value
	for i := 0; i < 6; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		panic(err)
	}
	ix := NewIndex(tbl)
	p := Predicate{Clauses: []Clause{{Col: "x", Op: OpGe, Val: engine.NewInt(4)}}}
	fmt.Println(ix.MatchInto(tbl, p, nil, bitset.New(tbl.NumRows())).Rows())
	// Output: [4 5]
}

// TestIndexAfterAppend: clause masks cached before rows were appended
// must rebuild instead of panicking on a bitset length mismatch.
func TestIndexAfterAppend(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TInt))
	var rows [][]engine.Value
	for i := 0; i < 5; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(tbl)
	p := Predicate{Clauses: []Clause{{Col: "x", Op: OpGe, Val: engine.NewInt(3)}}}
	if got := matchingBitset(tbl, p, ix, nil).Rows(); !equalRows(got, []int{3, 4}) {
		t.Fatalf("before append: %v", got)
	}
	if tbl, err = tbl.AppendBatch([][]engine.Value{{engine.NewInt(9)}}); err != nil {
		t.Fatal(err)
	}
	if got := matchingBitset(tbl, p, ix, nil).Rows(); !equalRows(got, []int{3, 4, 5}) {
		t.Fatalf("after append: %v", got)
	}
}

// TestIndexExtendsOnAppend pins the incremental clause-mask
// maintenance: after rows are appended, cached masks extend by decoding
// only the suffix (the cached entry survives), snapshots at the old
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
		if entries[k].bits.Len() != 150 {
			t.Fatalf("clause %d built = %d", k, entries[k].bits.Len())
		}
	}
	oldNonNull := ix.ClauseBits(NonNull("f"))

	// Grow the table by 60 rows and ask for the new version's masks.
	old150 := tbl
	grown := randomTable(rng, 60)
	tbl, err := tbl.AppendCols(grown.Batch(0, 60), 0, 60)
	if err != nil {
		t.Fatal(err)
	}

	for k, c := range clauses {
		nb := ix.Mask(tbl, c)
		if ix.clauses[c] != entries[k] {
			t.Fatalf("clause %d: canonical entry rebuilt instead of extended", k)
		}
		if entries[k].bits != nb || nb.Len() != 210 {
			t.Fatalf("clause %d: built=%d len=%d", k, entries[k].bits.Len(), nb.Len())
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
		// Requests at the old version still work.
		if s := ix.Mask(old150, c); s.Len() != 150 || s.Count() != old[k].Count() {
			t.Fatalf("clause %d: Mask(old) = len %d count %d", k, s.Len(), s.Count())
		}
	}
	if nn := ix.ClauseBits(NonNull("f")); nn.Len() != 210 || oldNonNull.Len() != 150 {
		t.Fatalf("non-NULL masks: new %d old %d", nn.Len(), oldNonNull.Len())
	}
}

// TestIndexRebase: a newer version's Mask rebases the index — an
// append lengthens its window, a retention moves its base and re-slices
// the cached masks — and an older version's Mask gets that version's
// mask without regressing the index.
func TestIndexRebase(t *testing.T) {
	tbl, err := engine.NewTableSeg("t", engine.NewSchema("x", engine.TFloat), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for i := 0; i < 100; i++ {
		rows = append(rows, []engine.Value{engine.NewFloat(float64(i % 40))})
	}
	if tbl, err = tbl.AppendBatch(rows[:30]); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(tbl)
	c := Clause{Col: "x", Op: OpGe, Val: engine.NewFloat(10)}
	if got := ix.Mask(tbl, c).Count(); got != 20 {
		t.Fatalf("initial count = %d", got)
	}
	grown, err := tbl.AppendBatch(rows[30:])
	if err != nil {
		t.Fatal(err)
	}
	want := func(v *engine.Table) int {
		n := 0
		for r := range v.NumRows() {
			if c.Matches(v.Value(r, 0)) {
				n++
			}
		}
		return n
	}
	if b := ix.Mask(grown, c); indexTable(ix) != grown || b.Len() != 100 || b.Count() != want(grown) {
		t.Fatalf("the grown version's Mask: len %d count %d, rebased %v", b.Len(), b.Count(), indexTable(ix) == grown)
	}
	if b := ix.Mask(tbl, c); indexTable(ix) != grown || b.Len() != 30 || b.Count() != 20 {
		t.Fatalf("the older version's Mask: len %d count %d, regressed %v", b.Len(), b.Count(), indexTable(ix) != grown)
	}
	retained, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 30})
	if err != nil || stats.DroppedRows != 64 {
		t.Fatalf("retain: %+v %v", stats, err)
	}
	entry := ix.clauses[c]
	if b := ix.Mask(retained, c); indexTable(ix) != retained || b.Len() != 36 || b.Count() != want(retained) {
		t.Fatalf("the retained version's Mask: len %d count %d", b.Len(), b.Count())
	}
	if ix.clauses[c] != entry || entry.bits.Len() != 36 {
		t.Fatal("the retention rebuilt the cached mask instead of re-slicing it")
	}
	// Versions from before the retention are served, and cache nothing.
	for _, v := range []*engine.Table{grown, tbl} {
		if b := ix.Mask(v, c); indexTable(ix) != retained || ix.clauses[c] != entry || b.Len() != v.NumRows() || b.Count() != want(v) {
			t.Fatalf("a pre-retention %d-row version: len %d count %d", v.NumRows(), b.Len(), b.Count())
		}
	}
}

// TestClauseEdgeCells pins the word-at-a-time numeric masks to
// Clause.Matches on the cells where comparisons are easiest to get
// wrong: NULL, NaN, ±0 and ±Inf in the column and as the clause
// constant, under all six ops, on float and int columns whose 64-row
// segments end in a partial tail — built whole, and extended across an
// append that starts mid-word.
func TestClauseEdgeCells(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edges := []engine.Value{
		engine.Null, engine.NewFloat(math.NaN()), engine.NewFloat(negZero), engine.NewFloat(0),
		engine.NewFloat(math.Inf(-1)), engine.NewFloat(math.Inf(1)), engine.NewFloat(1.5), engine.NewFloat(-2),
	}
	tbl, err := engine.NewTableSeg("t", engine.NewSchema("f", engine.TFloat, "i", engine.TInt), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for r := 0; r < 150; r++ {
		i := engine.NewInt(int64(r%5 - 2))
		if r%7 == 3 {
			i = engine.Null
		}
		rows = append(rows, []engine.Value{edges[(r*5+r/8)%len(edges)], i})
	}
	short, err := tbl.AppendBatch(rows[:100])
	if err != nil {
		t.Fatal(err)
	}
	full, err := short.AppendBatch(rows[100:])
	if err != nil {
		t.Fatal(err)
	}
	consts := append(edges, engine.NewInt(0), engine.NewInt(-2))
	for _, col := range []string{"f", "i"} {
		ci := full.Schema().ColIndex(col)
		for op := OpEq; op <= OpGt; op++ {
			for _, v := range consts {
				c := Clause{Col: col, Op: op, Val: v}
				whole := NewIndex(full).ClauseBits(c)
				grown := NewIndex(short)
				grown.ClauseBits(c)
				grown.Mask(full, c)
				for name, b := range map[string]*bitset.Bitset{"whole": whole, "extended": grown.ClauseBits(c)} {
					for r := 0; r < full.NumRows(); r++ {
						if want := c.Matches(full.Value(r, ci)); b.Get(r) != want {
							t.Fatalf("%s %s: row %d (%v) mask %v, Matches %v", name, c, r, full.Value(r, ci), b.Get(r), want)
						}
					}
				}
			}
		}
	}
}

// TestIndexEvictsBySecondChance: an index holds at most maxMasks masks;
// a clause hit between inserts keeps its mask, one never hit again is
// evicted, and an evicted clause rebuilds bit for bit.
func TestIndexEvictsBySecondChance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randomTable(rng, 300)
	ix := NewIndex(tbl)
	hot := Clause{Col: "f", Op: OpLe, Val: engine.NewFloat(1)}
	hotBits := ix.ClauseBits(hot)
	cold := func(k int) Clause { return Clause{Col: "f", Op: OpGt, Val: engine.NewFloat(float64(k) / 64)} }
	first := ix.ClauseBits(cold(0))
	firstClone := first.Clone()
	for k := 1; k < 4*maxMasks; k++ {
		ix.ClauseBits(cold(k))
		if ix.ClauseBits(hot) != hotBits {
			t.Fatalf("insert %d evicted the hot clause", k)
		}
		if len(ix.clauses) > maxMasks || len(ix.ring) != len(ix.clauses) {
			t.Fatalf("insert %d: %d masks, %d in the ring", k, len(ix.clauses), len(ix.ring))
		}
	}
	again := ix.ClauseBits(cold(0))
	if again == first {
		t.Fatal("a clause never hit again survived 4×maxMasks inserts")
	}
	if !equalRows(again.Rows(), firstClone.Rows()) || again.Len() != firstClone.Len() {
		t.Fatal("the evicted clause rebuilt different bits")
	}
}

// TestHeldMasksImmutable: masks handed out are never written — not by
// an extension after an append, a prefix request from an older version,
// a retention rebase or an eviction. Readers scan every held mask while
// the index moves on (run it under -race), and each mask ends equal to
// the clone taken when it was handed out; the masks served after each
// round match Clause.Matches.
func TestHeldMasksImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seed := randomTable(rng, 200)
	tbl, err := engine.NewTableSeg("t", seed.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.AppendCols(seed.Batch(0, 200), 0, 200); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(tbl)
	clauses := []Clause{
		{Col: "f", Op: OpGt, Val: engine.NewFloat(0)},
		{Col: "s", Op: OpEq, Val: engine.NewString("beta")},
		{Col: "i", Op: OpLe, Val: engine.NewInt(2)},
		NonNull("s"),
	}
	type held struct{ mask, clone *bitset.Bitset }
	var (
		masks []held
		mu    sync.Mutex // guards masks; the masks themselves are read unlocked
	)
	hold := func(b *bitset.Bitset) {
		mu.Lock()
		masks = append(masks, held{b, b.Clone()})
		mu.Unlock()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				hs := masks
				mu.Unlock()
				for _, h := range hs {
					h.mask.Count()
				}
				for _, c := range clauses {
					ix.Mask(indexTable(ix), c).Count() // as a query asks: at its version
				}
			}
		}()
	}
	for round := 0; round < 12; round++ {
		old := tbl
		for _, c := range clauses {
			hold(ix.ClauseBits(c))
		}
		more := randomTable(rng, 70)
		if tbl, err = tbl.AppendCols(more.Batch(0, 70), 0, 70); err != nil {
			t.Fatal(err)
		}
		for _, c := range clauses {
			hold(ix.Mask(tbl, c)) // extends into a copy
			hold(ix.Mask(old, c)) // the older length
		}
		if round%3 == 2 {
			if tbl, _, err = tbl.RetainTail(engine.RetentionPolicy{MaxRows: 150}); err != nil {
				t.Fatal(err)
			}
			hold(ix.Mask(tbl, clauses[0])) // rebases: re-slices every held clause's mask
		}
		for k := range maxMasks / 2 { // evicts the held clauses' entries now and then
			ix.ClauseBits(Clause{Col: "f", Op: OpLt, Val: engine.NewFloat(float64(round*maxMasks + k))})
		}
		for _, c := range clauses { // and what the index serves now is right
			b, ci := ix.ClauseBits(c), tbl.Schema().ColIndex(c.Col)
			for r := 0; r < tbl.NumRows(); r++ {
				if b.Get(r) != c.Matches(tbl.Value(r, ci)) {
					t.Fatalf("round %d %s row %d: mask %v", round, c, r, b.Get(r))
				}
			}
		}
	}
	close(stop)
	readers.Wait()
	for i, h := range masks {
		if h.mask.Len() != h.clone.Len() || !equalRows(h.mask.Rows(), h.clone.Rows()) {
			t.Fatalf("held mask %d changed after it was handed out", i)
		}
	}
}

// TestMaskRacesRetention: every mask request names its version, and
// gets that version's rows whatever the index has moved on to. Readers
// hold versions — some from before a retention the index has since
// rebased past — and ask Mask and MatchInto while a writer appends and
// retains (run it under -race); each answer must be bit-identical to
// Clause.Matches over the version's own rows. A read at a stale base
// must leave the index's cached entries as they were.
func TestMaskRacesRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := randomTable(rng, 100)
	tbl, err := engine.NewTableSeg("t", seed.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.AppendCols(seed.Batch(0, 100), 0, 100); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(tbl)
	clauses := []Clause{
		{Col: "f", Op: OpGt, Val: engine.NewFloat(0)},
		{Col: "s", Op: OpEq, Val: engine.NewString("beta")},
		NonNull("i"),
	}
	// A published version carries its clauses' masks by Clause.Matches.
	type version struct {
		v    *engine.Table
		want []*bitset.Bitset
	}
	publish := func(v *engine.Table) version {
		pv := version{v: v}
		for _, c := range clauses {
			b, ci := bitset.New(v.NumRows()), v.Schema().ColIndex(c.Col)
			for r := range v.NumRows() {
				if c.Matches(v.Value(r, ci)) {
					b.Set(r)
				}
			}
			pv.want = append(pv.want, b)
		}
		return pv
	}
	same := func(a, b *bitset.Bitset) bool {
		return a.Len() == b.Len() && equalRows(a.Rows(), b.Rows())
	}
	var (
		mu       sync.Mutex // guards versions; the versions are read unlocked
		versions = []version{publish(tbl)}
	)
	more := randomTable(rng, 90)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				pv := versions[rng.Intn(len(versions))]
				mu.Unlock()
				a, b := rng.Intn(len(clauses)), rng.Intn(len(clauses))
				if got := ix.Mask(pv.v, clauses[a]); !same(got, pv.want[a]) {
					t.Errorf("%s over a %d-row version at base %d: a mask of %d rows, %d set; want %d set",
						clauses[a], pv.v.NumRows(), pv.v.Base(), got.Len(), got.Count(), pv.want[a].Count())
					return
				}
				want := pv.want[a].Clone()
				want.And(pv.want[b])
				p := Predicate{Clauses: []Clause{clauses[a], clauses[b]}}
				if got := ix.MatchInto(pv.v, p, nil, bitset.New(pv.v.NumRows())); !same(got, want) {
					t.Errorf("%s over a %d-row version at base %d: %d rows, want %d",
						p, pv.v.NumRows(), pv.v.Base(), got.Count(), want.Count())
					return
				}
			}
		}()
	}
	sawStale := false
	for round := 0; round < 60; round++ {
		if tbl, err = tbl.AppendCols(more.Batch(0, 90), 0, 90); err != nil {
			t.Fatal(err)
		}
		appended := publish(tbl)
		if tbl, _, err = tbl.RetainTail(engine.RetentionPolicy{MaxRows: 4 * 64}); err != nil {
			t.Fatal(err)
		}
		retained := publish(tbl)
		sawStale = sawStale || appended.v.Base() < retained.v.Base()
		mu.Lock()
		versions = append(versions, appended, retained)
		if len(versions) > 8 { // the last four rounds' versions
			versions = versions[len(versions)-8:]
		}
		mu.Unlock()
	}
	close(stop)
	readers.Wait()
	if !sawStale {
		t.Fatal("harness coverage: no retention moved the base")
	}

	// The index serves the last version, and a stale read leaves it so.
	last := versions[len(versions)-1]
	for k, c := range clauses {
		if !same(ix.Mask(last.v, c), last.want[k]) {
			t.Fatalf("%s: the last version's mask differs from Matches", c)
		}
	}
	type entry struct {
		e    *maskEntry
		bits *bitset.Bitset
	}
	snapshot := func() (*engine.Table, map[Clause]entry) {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		m := make(map[Clause]entry, len(ix.clauses))
		for c, e := range ix.clauses {
			m[c] = entry{e, e.bits}
		}
		return ix.t, m
	}
	beforeT, before := snapshot()
	if beforeT != last.v {
		t.Fatal("the index is not on the last version")
	}
	uncached := Clause{Col: "f", Op: OpLt, Val: engine.NewFloat(1)}
	for _, pv := range versions {
		if pv.v.Base() == last.v.Base() {
			continue
		}
		for k, c := range clauses {
			if !same(ix.Mask(pv.v, c), pv.want[k]) {
				t.Fatalf("%s: a stale version's mask differs from Matches", c)
			}
		}
		ix.Mask(pv.v, uncached)
		ix.MatchInto(pv.v, Predicate{Clauses: clauses}, nil, bitset.New(pv.v.NumRows()))
	}
	afterT, after := snapshot()
	if afterT != beforeT || len(after) != len(before) {
		t.Fatalf("stale reads moved the index: %d entries → %d", len(before), len(after))
	}
	for c, e := range before {
		if after[c] != e {
			t.Fatalf("stale reads replaced %s's cached mask", c)
		}
	}
}
