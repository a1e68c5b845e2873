package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func segSchema() Schema { return NewSchema("x", TFloat, "s", TString) }

func segRow(i int) []Value {
	if i%7 == 3 {
		return []Value{Null, Null}
	}
	return []Value{NewFloat(float64(i)), NewString(fmt.Sprintf("s%d", i%5))}
}

// floatIs and strIs report whether row r, read through a column reader
// (and the version's dictionary), is the appended cell want.
func floatIs(fr *ColReader, r int, want Value) bool {
	f, null := fr.Float(r)
	return null == want.IsNull() && (null || f == want.Float())
}

func strIs(sr *ColReader, d Dict, r int, want Value) bool {
	if c := sr.Code(r); c >= 0 {
		return !want.IsNull() && d.Value(c) == want.S
	}
	return want.IsNull()
}

// TestSegmentBoundaryAppends drives a forced-tiny-segment table through
// append batches sized exactly on, one under and one over the segment
// boundary, checking values, readers and version isolation at every step
// against a flat shadow copy.
func TestSegmentBoundaryAppends(t *testing.T) {
	tbl, err := NewTableSeg("t", segSchema(), MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	segRows := tbl.SegRows()
	if segRows != 64 {
		t.Fatalf("SegRows = %d", segRows)
	}
	var shadow [][]Value
	next := 0
	batch := func(k int) [][]Value {
		rows := make([][]Value, k)
		for i := range rows {
			rows[i] = segRow(next)
			shadow = append(shadow, segRow(next))
			next++
		}
		return rows
	}
	cur := tbl
	var versions []*Table
	for _, k := range []int{segRows - 1, 1, segRows, segRows + 1, 2*segRows - 1, 3, 1} {
		nt, err := cur.AppendBatch(batch(k))
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, cur)
		cur = nt

		if cur.NumRows() != len(shadow) {
			t.Fatalf("rows = %d, want %d", cur.NumRows(), len(shadow))
		}
		sealed, tail := cur.NumSegments()
		if want := len(shadow) / segRows; sealed != want && sealed != want-1 {
			// sealing is lazy: a boundary-exact fill seals on the next append
			t.Fatalf("sealed = %d with %d rows", sealed, len(shadow))
		}
		if sealed<<uint(MinSegmentBits)+tail != len(shadow) {
			t.Fatalf("segment accounting: %d sealed + %d tail != %d", sealed, tail, len(shadow))
		}
		fr, sr, d := cur.NewColReader(0), cur.NewColReader(1), cur.Dict(1)
		for r, row := range shadow {
			if got := cur.Value(r, 0); got.Key() != row[0].Key() {
				t.Fatalf("Value(%d,0) = %v, want %v", r, got, row[0])
			}
			if !floatIs(fr, r, row[0]) {
				t.Fatalf("float reader row %d mismatch", r)
			}
			if !strIs(sr, d, r, row[1]) {
				t.Fatalf("code reader row %d mismatch", r)
			}
		}
	}
	// Every retained old version still serves its own window, and no more.
	for _, v := range versions {
		n := v.NumRows()
		fr := v.NewColReader(0)
		for r := 0; r < n; r++ {
			if !floatIs(fr, r, shadow[r][0]) {
				t.Fatalf("old version row %d mismatch", r)
			}
		}
		if vals, _ := fr.Floats((n - 1) >> v.SegmentBits()); n > 0 && len(vals) != (n-1)&(segRows-1)+1 {
			t.Fatalf("old version of %d rows reads a last chunk of %d", n, len(vals))
		}
	}
}

// TestRetainTail pins the retention contract: whole head segments drop,
// ids rebase by the dropped row count, old versions stay intact, and
// carried-on appends keep working.
func TestRetainTail(t *testing.T) {
	tbl, err := NewTableSeg("t", segSchema(), MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	segRows := tbl.SegRows()
	cur := tbl
	total := 0
	add := func(k int) {
		rows := make([][]Value, k)
		for i := range rows {
			rows[i] = segRow(total + i)
		}
		nt, err := cur.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		cur = nt
		total += k
	}
	add(5*segRows + 10)
	old := cur

	ret, stats, err := cur.RetainTail(RetentionPolicy{MaxRows: 2 * segRows})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows == 0 || stats.DroppedRows%segRows != 0 {
		t.Fatalf("dropped %d rows", stats.DroppedRows)
	}
	if ret.NumRows() < 2*segRows {
		t.Fatalf("retained %d rows, policy wanted >= %d", ret.NumRows(), 2*segRows)
	}
	if ret.Base() != stats.DroppedRows {
		t.Fatalf("Base = %d, want %d", ret.Base(), stats.DroppedRows)
	}
	if ret.Version() != old.Version() {
		t.Fatal("retention must not move the stream end")
	}
	// Rebase: local row r of ret is stream row r+Base.
	fr := ret.NewColReader(0)
	for r := 0; r < ret.NumRows(); r++ {
		want := segRow(r + ret.Base())[0]
		if !floatIs(fr, r, want) {
			t.Fatalf("rebased row %d mismatch", r)
		}
		if got := ret.Value(r, 0); got.Key() != want.Key() {
			t.Fatalf("rebased Value(%d) = %v", r, got)
		}
	}
	// The old version still reads its full window.
	if old.NumRows() != total || old.Value(0, 0).Float() != 0 {
		t.Fatal("pre-retention version disturbed")
	}
	// Readers of the old version still serve its window.
	if !strIs(old.NewColReader(1), old.Dict(1), 0, NewString("s0")) {
		t.Fatal("stale-base code reader unusable")
	}
	if !floatIs(old.NewColReader(0), total-1, segRow(total - 1)[0]) {
		t.Fatal("stale-base float reader unusable")
	}
	// Retention is linear: the superseded version refuses mutation.
	if _, err := old.AppendBatch([][]Value{segRow(0)}); err == nil {
		t.Fatal("append to pre-retention version should error")
	}
	if _, _, err := old.RetainTail(RetentionPolicy{MaxRows: 1}); err == nil {
		t.Fatal("retention on superseded version should error")
	}
	// Appends continue on the retained version; ids stay rebased.
	before := cur
	cur = ret
	add(segRows + 5)
	_ = before
	if got := cur.Value(cur.NumRows()-1, 0); !got.IsNull() && got.Float() != float64(total-1) {
		t.Fatalf("post-retention append tail = %v, want %v", got, total-1)
	}
	// Dict codes remain append-stable across retention (family dict).
	sr, d := cur.NewColReader(1), cur.Dict(1)
	for r := 0; r < cur.NumRows(); r++ {
		if !strIs(sr, d, r, segRow(r + cur.Base())[1]) {
			t.Fatalf("dict mismatch at %d", r)
		}
	}
}

// TestRetainBoundedMemory pins the bounded-memory claim: a long append
// loop with periodic retention plateaus in retained segments and
// approximate bytes.
func TestRetainBoundedMemory(t *testing.T) {
	tbl, err := NewTableSeg("t", segSchema(), MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	segRows := tbl.SegRows()
	cur := tbl
	maxSegs, maxBytes := 0, 0
	for i := 0; i < 100; i++ {
		rows := make([][]Value, segRows/2)
		for j := range rows {
			rows[j] = segRow(i*len(rows) + j)
		}
		nt, err := cur.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		cur = nt
		nt2, _, err := cur.RetainTail(RetentionPolicy{MaxRows: 4 * segRows})
		if err != nil {
			t.Fatal(err)
		}
		cur = nt2
		segs, bytes := cur.MemStats()
		if segs > maxSegs {
			maxSegs = segs
		}
		if bytes > maxBytes {
			maxBytes = bytes
		}
	}
	if cur.NumRows() > 5*segRows {
		t.Fatalf("retention did not bound rows: %d", cur.NumRows())
	}
	if maxSegs > 6 {
		t.Fatalf("retained segments grew unbounded: %d", maxSegs)
	}
	segs, bytes := cur.MemStats()
	if segs == 0 || bytes == 0 {
		t.Fatal("MemStats empty")
	}
	// The tail is priced like a sealed segment, by what its chunks hold:
	// 8 bytes a float, 4 a code, one NULL word per 64 floats.
	sealed, tailRows := cur.NumSegments()
	for k := 0; k < sealed; k++ {
		chunks, _ := cur.SegmentChunks(k)
		for c := range chunks {
			bytes -= chunks[c].Bytes()
		}
	}
	if want := tailRows*(8+4) + (tailRows+63)/64*8; tailRows == 0 || bytes != want {
		t.Fatalf("MemStats prices %d tail rows at %d bytes, want %d", tailRows, bytes, want)
	}
}

// TestRetainTimeCutoff drops only segments entirely below the cutoff.
func TestRetainTimeCutoff(t *testing.T) {
	tbl, err := NewTableSeg("t", NewSchema("ts", TFloat), MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	segRows := tbl.SegRows()
	cur := tbl
	rows := make([][]Value, 4*segRows)
	for i := range rows {
		rows[i] = []Value{NewFloat(float64(i))}
	}
	cur, err = cur.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	ret, stats, err := cur.RetainTail(RetentionPolicy{TimeCol: "ts", Cutoff: float64(2*segRows + 5)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedSegments != 2 {
		t.Fatalf("dropped %d segments, want 2 (cutoff mid-third-segment)", stats.DroppedSegments)
	}
	if ret.Value(0, 0).Float() != float64(2*segRows) {
		t.Fatalf("first retained value = %v", ret.Value(0, 0))
	}
	// NaN rows keep a segment, conservatively.
	tbl2, _ := NewTableSeg("t2", NewSchema("ts", TFloat), MinSegmentBits)
	rows2 := make([][]Value, 2*segRows)
	for i := range rows2 {
		rows2[i] = []Value{NewFloat(math.NaN())}
	}
	cur2, _ := tbl2.AppendBatch(rows2)
	_, stats2, err := cur2.RetainTail(RetentionPolicy{TimeCol: "ts", Cutoff: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DroppedSegments != 0 {
		t.Fatal("NaN timestamps must not be dropped by an age policy")
	}
}

// TestDBRetainRepublish checks the catalog-level retention republish.
func TestDBRetainRepublish(t *testing.T) {
	db := NewDB()
	tbl, _ := NewTableSeg("t", segSchema(), MinSegmentBits)
	db.Register(tbl)
	segRows := tbl.SegRows()
	rows := make([][]Value, 3*segRows)
	for i := range rows {
		rows[i] = segRow(i)
	}
	if _, err := db.Append("t", rows); err != nil {
		t.Fatal(err)
	}
	nt, stats, err := db.Retain("t", RetentionPolicy{MaxRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedSegments != 2 || nt.Base() != 2*segRows {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := db.Table("t")
	if err != nil || got != nt {
		t.Fatal("retained version not republished")
	}
	// Appending after retention works through the catalog too.
	if _, err := db.Append("t", [][]Value{segRow(0)}); err != nil {
		t.Fatal(err)
	}
}

// TestDBAppendRetainRace is a regression test: DB.Retain racing a
// concurrent DB.Append used to surface the loser's errStaleAppend to
// the caller instead of retrying against the republished version.
func TestDBAppendRetainRace(t *testing.T) {
	db := NewDB()
	tbl, _ := NewTableSeg("t", segSchema(), MinSegmentBits)
	db.Register(tbl)
	segRows := tbl.SegRows()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rows := make([][]Value, segRows/2)
			for j := range rows {
				rows[j] = segRow(i*len(rows) + j)
			}
			if _, err := db.Append("t", rows); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, _, err := db.Retain("t", RetentionPolicy{MaxRows: 2 * segRows}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("catalog race surfaced: %v", err)
	}
	// The interleaving is nondeterministic (retention may drain its
	// iterations before the stream grows), so bound the final state
	// with one more deterministic pass rather than asserting timing.
	cur, _, err := db.Retain("t", RetentionPolicy{MaxRows: 2 * segRows})
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumRows() >= 3*segRows {
		t.Fatalf("final retention did not bound rows: %d", cur.NumRows())
	}
	if reg, _ := db.Table("t"); reg != cur {
		t.Fatal("retained version not republished")
	}
}

// TestTailWordReadsRaceAppends races the one word an append could write
// inside a published version: readers fetch the newest version N and
// hammer the cells of its last, partial NULL word through Value and a
// float and a code reader while the writer publishes N+1…N+k, each
// setting NULL bits of that same word — in its own copy, which is what
// -race and the "no bits past the version's rows" check prove.
func TestTailWordReadsRaceAppends(t *testing.T) {
	db := NewDB()
	tbl, _ := NewTableSeg("t", segSchema(), MinSegmentBits)
	db.Register(tbl)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, _ := db.Table("t")
				n := cur.NumRows()
				if n == 0 {
					continue
				}
				fr, sr := cur.NewColReader(0), cur.NewColReader(1)
				lo := (n - 1) &^ 63
				var want uint64
				for r := lo; r < n; r++ {
					null := r%7 == 3 // segRow
					if null {
						want |= 1 << uint(r-lo)
					}
					if _, fnull := fr.Float(r); cur.Value(r, 0).IsNull() != null || fnull != null || (sr.Code(r) < 0) != null {
						t.Errorf("version of %d rows: row %d NULL flags disagree", n, r)
						return
					}
				}
				if _, words := fr.Floats((n - 1) >> cur.SegmentBits()); words[len(words)-1] != want {
					t.Errorf("version of %d rows: last NULL word %b, want %b", n, words[len(words)-1], want)
					return
				}
			}
		}()
	}
	for next := 0; next < 2000; next += 5 {
		rows := make([][]Value, 5)
		for j := range rows {
			rows[j] = segRow(next + j)
		}
		if _, err := db.Append("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
