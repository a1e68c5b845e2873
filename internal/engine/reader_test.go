package engine_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/par"
	"repro/internal/testgen"
)

// The typed cell reader against the rows that were appended. A sealed
// segment is typed chunks whoever holds them — the table that sealed it,
// or a faultable twin (enginetest.Loader serves float, code and
// exact-int chunks) — and must hand back every cell bit for bit through
// RowReader.Value/RowInto, Table.Value/RowInto/Row and the column
// reader, and leave no pin behind on any exit path.

func sameCell(a, b engine.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func edgeTable(t *testing.T, rng *rand.Rand, nrows int) *engine.Table {
	t.Helper()
	tbl, err := engine.NewTableSeg("p", enginetest.EdgeSchema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.AppendBatch(enginetest.EdgeRows(rng, nrows)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// assertCells reads rows [0, n) of got through every boxed accessor and
// compares them with rows [off, off+n) of want.
func assertCells(t *testing.T, label string, want, got *engine.Table, off int) {
	t.Helper()
	rr := got.NewRowReader()
	defer rr.Close()
	ncols := got.NumCols()
	viaReader, viaTable := make([]engine.Value, ncols), make([]engine.Value, ncols)
	for r := 0; r < got.NumRows(); r++ {
		rr.RowInto(r, viaReader)
		got.RowInto(r, viaTable)
		row := got.Row(r)
		for c := 0; c < ncols; c++ {
			w := want.Value(off+r, c)
			for how, v := range map[string]engine.Value{
				"RowReader.Value": rr.Value(r, c), "RowReader.RowInto": viaReader[c],
				"Table.Value": got.Value(r, c), "Table.RowInto": viaTable[c], "Table.Row": row[c],
			} {
				if !sameCell(w, v) {
					t.Fatalf("%s: %s(%d, %d) = %#v, resident cell is %#v", label, how, r, c, v, w)
				}
			}
		}
	}
}

func assertNoPins(t *testing.T, label string, l *enginetest.Loader) {
	t.Helper()
	if _, _, _, pinned := l.Counts(); pinned != 0 {
		t.Fatalf("%s: %d chunks still pinned", label, pinned)
	}
}

func TestTypedReaderMatchesResidentCells(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, src := range map[string]*engine.Table{
		"testgen": testgen.TableSeg(rng, 300, engine.MinSegmentBits),
		"edge":    edgeTable(t, rng, 300),
	} {
		twin, l := enginetest.Faultable(src)
		held, _ := twin.SegmentChunks(0)
		if sealed, _ := twin.NumSegments(); sealed != 4 || !twin.SegmentFaultable(0) || held != nil {
			t.Fatalf("%s: twin is not a 4-segment faultable table", name)
		}
		assertCells(t, name, src, twin, 0)
		assertNoPins(t, name, l)
		floats, codes, ints, _ := l.Counts()
		if floats == 0 || codes == 0 {
			t.Fatalf("%s: cells were not read through typed chunks (%d float, %d code pins)", name, floats, codes)
		}
		// The exact-int arm is for ints past 2^53 only: idle on ordinary
		// data, engaged by the edge table's.
		if big := name == "edge"; (ints > 0) != big {
			t.Fatalf("%s: %d exact-int pins", name, ints)
		}

		// One pin per (column, segment) for a RowReader, however many rows
		// it serves, and its counters say so: four faulted, the held tail.
		rr := twin.NewRowReader()
		for r := 0; r < twin.NumRows(); r++ {
			rr.Value(r, 1)
		}
		if faulted, resident := rr.Counters(); faulted != 4 || resident != 1 {
			t.Fatalf("%s: sequential read of one column pinned %d+%d chunks, want 4+1", name, faulted, resident)
		}
		rr.Close()
		rr.Close() // idempotent
		assertNoPins(t, name, l)

		// A version retention has superseded keeps its dictionary and its
		// cells; the retained version reads the rebased window.
		retained, stats, err := twin.RetainTail(engine.RetentionPolicy{MaxRows: twin.NumRows() - twin.SegRows()})
		if err != nil || stats.DroppedSegments != 1 {
			t.Fatalf("%s: retain: %+v %v", name, stats, err)
		}
		sCol := src.Schema().ColIndex("s")
		if !slices.Equal(twin.Dict(sCol).Values(), src.Dict(sCol).Values()) {
			t.Fatalf("%s: superseded version lost its dictionary", name)
		}
		assertCells(t, name+" stale", src, twin, 0)
		assertCells(t, name+" retained", src, retained, stats.DroppedRows)
		assertNoPins(t, name, l)
	}
}

// TestTypedReaderReleasesPinsOnLoadFailure: a chunk-load failure mid-read
// — of the typed chunk, or of the exact-int chunk behind it — surfaces
// as a SegmentLoadError and leaves no pin behind once the reader is
// closed; Table.Value's transient pin likewise.
func TestTypedReaderReleasesPinsOnLoadFailure(t *testing.T) {
	src := edgeTable(t, rand.New(rand.NewSource(5)), 200)
	// Make sure segment 1 holds an int past 2^53, whatever the draw.
	iCol := src.Schema().ColIndex("i")
	big := -1
	for r := src.SegRows(); r < 2*src.SegRows(); r++ {
		if v := src.Value(r, iCol); !v.IsNull() && (v.I >= 1<<53 || v.I <= -(1<<53)) {
			big = r
			break
		}
	}
	if big < 0 {
		t.Fatal("fixture: no big int in segment 1")
	}
	boom := errors.New("injected")
	for _, failNth := range []int{1, 2} { // the float chunk, then the exact chunk behind it
		twin, l := enginetest.Faultable(src)
		pins := 0
		l.Fail = func(seg, col int) error {
			if seg == 1 && col == iCol {
				if pins++; pins == failNth {
					return boom
				}
			}
			return nil
		}
		catch := func(read func()) (err error) {
			defer engine.CatchSegmentLoad(&err)
			read()
			return nil
		}
		err := catch(func() {
			rr := twin.NewRowReader()
			defer rr.Close()
			for r := 0; r < twin.NumRows(); r++ {
				rr.Value(r, iCol)
			}
		})
		var sle *engine.SegmentLoadError
		if !errors.As(err, &sle) || sle.Seg != 1 || sle.Col != iCol || !errors.Is(err, boom) {
			t.Fatalf("fail pin %d: want a SegmentLoadError for segment 1 column %d, got %v", failNth, iCol, err)
		}
		assertNoPins(t, "RowReader", l)

		pins = 0
		if err = catch(func() { twin.Value(big, iCol) }); !errors.As(err, &sle) {
			t.Fatalf("fail pin %d: Table.Value: want a SegmentLoadError, got %v", failNth, err)
		}
		assertNoPins(t, "Table.Value", l)

		// With the fault gone the same readers serve every cell.
		l.Fail = nil
		assertCells(t, "after failure", src, twin, 0)
		assertNoPins(t, "after failure", l)
	}
}

// matrixSchema is EdgeSchema plus a numeric and a string column that are
// NULL in every row.
func matrixSchema() engine.Schema {
	return append(enginetest.EdgeSchema(), engine.Column{Name: "zf", Type: engine.TFloat}, engine.Column{Name: "zs", Type: engine.TString})
}

// matrixRows cycles through every cell a lossy representation would
// mangle — -0.0, NaN payloads, ±Inf, ints at ±(2^53−1), ±2^53, ±(2^53+1)
// and MinInt64, both bools, times, NULLs, empty and repeated strings —
// with periods that are coprime, so each segment sees most combinations,
// then random edge rows on top.
func matrixRows(rng *rand.Rand, n int) [][]engine.Value {
	ints := []int64{1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1), math.MinInt64, 0, 42}
	floats := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000abc), math.Inf(1), math.Inf(-1), 1.5}
	strs := []string{"", "a", "a", "A", "", "xy"}
	rows := make([][]engine.Value, n)
	for r := range rows {
		row := append(enginetest.EdgeRow(rng), engine.Null, engine.Null)
		if r%2 == 0 {
			row[0] = engine.NewInt(ints[r/2%len(ints)])
			row[1] = engine.NewFloat(floats[r/2%len(floats)])
			row[2] = engine.NewBool(r%4 == 0)
			row[3] = engine.NewString(strs[r/2%len(strs)])
			row[4] = engine.NewTimeUnix(ints[(r/2+3)%len(ints)])
		}
		if r%13 == 5 {
			row[r%5] = engine.Null
		}
		rows[r] = row
	}
	return rows
}

// assertMatrix compares every cell of tbl, read through every accessor,
// with the rows that were appended: want[r] is tbl's local row r.
func assertMatrix(t *testing.T, label string, tbl *engine.Table, want [][]engine.Value) {
	t.Helper()
	if tbl.NumRows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, tbl.NumRows(), len(want))
	}
	rr := tbl.NewRowReader()
	defer rr.Close()
	segRows := tbl.SegRows()
	for c, col := range tbl.Schema() {
		cr, dict := tbl.NewColReader(c), tbl.Dict(c)
		defer cr.Close()
		for r, row := range want {
			w := row[c]
			if v := tbl.Value(r, c); !sameCell(v, w) {
				t.Fatalf("%s: Table.Value(%d, %s) = %#v, appended %#v", label, r, col.Name, v, w)
			}
			if v := rr.Value(r, c); !sameCell(v, w) {
				t.Fatalf("%s: RowReader.Value(%d, %s) = %#v, appended %#v", label, r, col.Name, v, w)
			}
			if col.Type.IsNumeric() {
				f, null := cr.Float(r)
				vals, words := cr.Floats(r / segRows)
				off := r % segRows
				for how, got := range map[string]float64{"Float": f, "Floats": vals[off]} {
					if wantF := w.Float(); math.Float64bits(got) != math.Float64bits(wantF) && !(w.IsNull() && math.IsNaN(got)) {
						t.Fatalf("%s: ColReader.%s at (%d, %s) = %x, want %x", label, how, r, col.Name, math.Float64bits(got), math.Float64bits(wantF))
					}
				}
				if wordNull := words[off>>6]>>(uint(off)&63)&1 == 1; null != w.IsNull() || wordNull != w.IsNull() {
					t.Fatalf("%s: NULL flag of (%d, %s) = %v/%v, want %v", label, r, col.Name, null, wordNull, w.IsNull())
				}
				continue
			}
			code := cr.Code(r)
			switch {
			case code != cr.Codes(r / segRows)[r%segRows]:
				t.Fatalf("%s: ColReader.Code(%d) of %s = %d, its chunk says %d", label, r, col.Name, code, cr.Codes(r / segRows)[r%segRows])
			case w.IsNull() != (code < 0):
				t.Fatalf("%s: code %d at (%d, %s), appended %#v", label, code, r, col.Name, w)
			case code >= 0 && (dict.Value(code) != w.S || dict.Code(w.S) != code):
				t.Fatalf("%s: code %d at (%d, %s) is %q (Code(%q) = %d)", label, code, r, col.Name, dict.Value(code), w.S, dict.Code(w.S))
			}
		}
		// Every chunk is as long as the version's rows in its segment, and
		// its NULL words carry no bit past them.
		for k := 0; k*segRows < len(want); k++ {
			rows := min(len(want)-k*segRows, segRows)
			vals, words := cr.Floats(k)
			if n := len(vals) + len(cr.Codes(k)); n != rows {
				t.Fatalf("%s: segment %d of %s reads %d cells, the version has %d there", label, k, col.Name, n, rows)
			}
			if col.Type.IsNumeric() && len(words) != (rows+63)/64 {
				t.Fatalf("%s: segment %d of %s has %d NULL words for %d rows", label, k, col.Name, len(words), rows)
			}
			for i, word := range words {
				for b := 0; b < 64; b++ {
					r := k*segRows + 64*i + b
					if null := r < len(want) && want[r][c].IsNull(); null != (word>>uint(b)&1 == 1) {
						t.Fatalf("%s: segment %d NULL word %d of %s: bit %d (row %d of %d) = %v", label, k, i, col.Name, b, r, len(want), !null)
					}
				}
			}
		}
	}
}

// TestCellMatrixThreeWay is the representation matrix: the appended row
// slice is the oracle; a table that sealed its own segments and its
// faultable twin are both compared with it cell by cell — boxed by the
// table, boxed by a row reader, typed by a column reader — at
// MinSegmentBits with a partial tail, on a version whose tail a newer
// one has sealed, after a retention rebase and on the version that
// retention superseded.
func TestCellMatrixThreeWay(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const seg = 1 << engine.MinSegmentBits
	rows := matrixRows(rng, 5*seg+9)
	first := rows[:3*seg+17]
	build := func() *engine.Table {
		tbl, err := engine.NewTableSeg("p", matrixSchema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		if tbl, err = tbl.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	twin, l := enginetest.Faultable(build()) // its source family stays as built
	for name, old := range map[string]*engine.Table{"held": build(), "faultable": twin} {
		if sealed, tail := old.NumSegments(); sealed != 3 || tail != 17 || old.SegmentFaultable(0) != (name == "faultable") {
			t.Fatalf("%s: %d sealed + %d tail rows, faultable %v", name, sealed, tail, old.SegmentFaultable(0))
		}
		assertMatrix(t, name, old, first)

		grown, err := old.AppendBatch(rows[len(first):])
		if err != nil {
			t.Fatal(err)
		}
		assertMatrix(t, name+" grown", grown, rows)
		assertMatrix(t, name+" with a superseded tail", old, first)

		retained, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * seg})
		if err != nil || stats.DroppedSegments != 3 {
			t.Fatalf("%s: retain: %+v %v", name, stats, err)
		}
		assertMatrix(t, name+" retained", retained, rows[stats.DroppedRows:])
		assertMatrix(t, name+" superseded by retention", grown, rows)
		assertNoPins(t, name, l)
	}
	if floats, codes, ints, _ := l.Counts(); floats == 0 || codes == 0 || ints == 0 {
		t.Fatalf("the twin served %d float, %d code and %d exact-int pins: some chunk kind went unread", floats, codes, ints)
	}
}

// TestSegmentedRandomizedParity drives random batch appends (one row
// and up) plus occasional retention through a tiny-segment table and a
// boxed mirror of the stream, and after every step compares EVERY
// version of the chain so far — the ones whose tail a later append has
// sealed and the ones retention has moved past included — with the
// mirror, cell for cell through every accessor (assertMatrix), plus the
// dictionary bound: Values is what the version's own rows had seen, and
// a string that first appears later has no Code. The rows are the
// matrix's (NaN payloads, ±0.0, ints at and past ±2^53 arriving
// mid-tail, all-NULL columns) with strings first seen mid-tail; batch
// sizes fall on, beside and far from the 64-row boundaries.
func TestSegmentedRandomizedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := matrixSchema()
	for trial := 0; trial < 20; trial++ {
		cur, err := engine.NewTableSeg("t", schema, engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		stream := matrixRows(rng, 13*130)
		for r, row := range stream {
			if r%11 >= 9 {
				row[3] = engine.NewString(fmt.Sprintf("n%d", r/11)) // new at r%11 == 9, seen again right after
			}
		}
		chain := []*engine.Table{cur}
		for step, next := 0, 0; step < 12; step++ {
			k := []int{1, 7, 63, 64, 65, 130, 1 + rng.Intn(40), enginetest.BoundaryBatchSize(rng, cur)}[rng.Intn(8)]
			if cur, err = cur.AppendBatch(stream[next : next+k]); err != nil {
				t.Fatal(err)
			}
			chain = append(chain, cur)
			next += k
			if rng.Intn(3) == 0 {
				ret, _, err := cur.RetainTail(engine.RetentionPolicy{MaxRows: 100 + rng.Intn(100)})
				if err != nil {
					t.Fatal(err)
				}
				if ret != cur {
					cur = ret
					chain = append(chain, cur)
				}
			}
			for vi, v := range chain {
				label := fmt.Sprintf("trial %d step %d version %d [%d, %d)", trial, step, vi, v.Base(), v.Version())
				assertMatrix(t, label, v, stream[v.Base():v.Version()])
				for c, col := range schema {
					if col.Type != engine.TString {
						continue
					}
					dv := v.Dict(c)
					seen := map[string]bool{}
					var values []string
					for r, row := range stream[:next] {
						if s := row[c]; !s.IsNull() && !seen[s.S] {
							seen[s.S] = true
							if r < v.Version() {
								values = append(values, s.S)
							} else if dv.Code(s.S) != -1 {
								t.Fatalf("%s: %s has a code for %q, first appended at stream row %d", label, col.Name, s.S, r)
							}
						}
					}
					if !slices.Equal(dv.Values(), values) {
						t.Fatalf("%s: %s Values = %q, the stream's first appearances are %q", label, col.Name, dv.Values(), values)
					}
				}
			}
		}
	}
}

// TestOldVersionReadsRaceAppends holds an old version — three sealed
// segments and a partial tail — and reads every cell of it through
// Table.Value, a RowReader and a column reader, again and again, while
// the family's newest version appends past it, seals its tail and
// retains its segments away. Boxing a sealed string cell reaches the
// dictionary through the segment, not the family lock, so under -race
// this is the proof that no reader shares unguarded state with the
// appender, for a table that holds its chunks and for a faultable twin.
func TestOldVersionReadsRaceAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const seg = 1 << engine.MinSegmentBits
	first := matrixRows(rng, 3*seg+17)
	more := matrixRows(rng, 40*seg)
	build := func() *engine.Table {
		tbl, err := engine.NewTableSeg("p", matrixSchema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		if tbl, err = tbl.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	twin, _ := enginetest.Faultable(build())
	for name, old := range map[string]*engine.Table{"held": build(), "faultable": twin} {
		var wg sync.WaitGroup
		var passes atomic.Int64
		stop := make(chan struct{})
		for reader := 0; reader < 2; reader++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer passes.Add(1 << 20) // a failed reader must not hang the appender
				for ; ; passes.Add(1) {
					select {
					case <-stop:
						return
					default:
					}
					rr := old.NewRowReader()
					for c, col := range old.Schema() {
						cr := old.NewColReader(c)
						for r, row := range first {
							w := row[c]
							if v := old.Value(r, c); !sameCell(v, w) {
								t.Errorf("%s: Table.Value(%d, %s) = %#v, appended %#v", name, r, col.Name, v, w)
								return
							}
							if v := rr.Value(r, c); !sameCell(v, w) {
								t.Errorf("%s: RowReader.Value(%d, %s) = %#v, appended %#v", name, r, col.Name, v, w)
								return
							}
							null := false
							if col.Type.IsNumeric() {
								_, null = cr.Float(r)
							} else {
								null = cr.Code(r) < 0
							}
							if null != w.IsNull() {
								t.Errorf("%s: ColReader NULL flag of (%d, %s)", name, r, col.Name)
								return
							}
						}
						cr.Close()
					}
					rr.Close()
				}
			}()
		}
		cur := old
		for lo := 0; lo < len(more) || passes.Load() < 6; lo += 37 { // until the readers have overlapped it
			var err error
			at := lo % (len(more) - 37)
			if cur, err = cur.AppendBatch(more[at : at+37]); err != nil {
				t.Fatal(err)
			}
			if lo%5 == 0 {
				if cur, _, err = cur.RetainTail(engine.RetentionPolicy{MaxRows: 2 * seg}); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		if cur.Base() == 0 {
			t.Fatalf("%s: retention never moved the base", name)
		}
	}
}

// TestMemStatsCountsWhatSegmentsHold: a sealed 64Ki-row segment of seven
// numeric columns is 8 bytes of float and an eighth of a byte of NULL
// bitmap a cell — not the 40-byte boxed Value it was appended as.
func TestMemStatsCountsWhatSegmentsHold(t *testing.T) {
	schema := engine.NewSchema("a", engine.TFloat, "b", engine.TFloat, "c", engine.TInt, "d", engine.TInt, "e", engine.TTime, "f", engine.TBool, "g", engine.TFloat)
	tbl, err := engine.NewTable("wide", schema)
	if err != nil {
		t.Fatal(err)
	}
	nrows := tbl.SegRows() + 1 // the first row of the next tail seals the segment
	b := engine.NewBatch(schema, nrows)
	for r := 0; r < nrows; r++ {
		f, i := float64(r)*0.5, int64(r)
		b.AppendFloat(0, f)
		b.AppendFloat(1, f)
		b.AppendInt(2, i)
		b.AppendInt(3, i)
		b.AppendInt(4, i)
		b.AppendInt(5, i&1^1)
		b.AppendFloat(6, f)
	}
	if tbl, err = tbl.AppendCols(b, 0, nrows); err != nil {
		t.Fatal(err)
	}
	segs, bytes := tbl.MemStats()
	if sealed, tail := tbl.NumSegments(); sealed != 1 || tail != 1 || segs != 2 {
		t.Fatalf("%d sealed + %d tail rows, MemStats says %d segments", sealed, tail, segs)
	}
	if cells := nrows * len(schema); bytes > 9*cells || bytes < 8*cells {
		t.Fatalf("MemStats reports %d bytes for %d cells (%.1f a cell), want 8 to 9", bytes, cells, float64(bytes)/float64(cells))
	}
}

// A load error raised on a par.Do helper reaches the caller wrapped with
// the helper's stack; CatchSegmentLoad still turns it into the bare error.
func TestCatchSegmentLoadFromHelper(t *testing.T) {
	if par.Width(2) < 2 {
		t.Skip("GOMAXPROCS 1: par.Do starts no helper")
	}
	want := &engine.SegmentLoadError{Table: "t", Seg: 1, Col: 2, Err: errors.New("injected")}
	helperRan := make(chan struct{})
	err := func() (err error) {
		defer engine.CatchSegmentLoad(&err)
		par.Do(2, func(w, _ int) {
			if w == 0 {
				<-helperRan
				return
			}
			close(helperRan)
			panic(want)
		})
		return nil
	}()
	if err != want {
		t.Fatalf("CatchSegmentLoad returned %v, want the helper's *SegmentLoadError bare", err)
	}
}
