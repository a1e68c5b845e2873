package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/testgen"
)

// The typed reader against the resident boxed cells: a faultable twin of
// a resident table (enginetest.Loader serves float, code and exact-int
// chunks, never a boxed one) must hand back every cell bit for bit
// through RowReader.Value/RowInto and Table.Value/RowInto/Row, and leave
// no pin behind on any exit path.

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
		if sealed, _ := twin.NumSegments(); sealed != 4 || !twin.SegmentFaultable(0) || twin.SegmentCols(0) != nil {
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
		// it serves, and its counters say so.
		rr := twin.NewRowReader()
		for r := 0; r < twin.NumRows(); r++ {
			rr.Value(r, 1)
		}
		if faulted, resident := rr.Counters(); faulted != 4 || resident != 0 {
			t.Fatalf("%s: sequential read of one column pinned %d+%d chunks, want 4", name, faulted, resident)
		}
		rr.Close()
		rr.Close() // idempotent
		assertNoPins(t, name, l)

		// A version retention has superseded gets no DictView, and still
		// reads its strings through the code chunks and the family
		// dictionary; the retained version reads the rebased window.
		retained, stats, err := twin.RetainTail(engine.RetentionPolicy{MaxRows: twin.NumRows() - twin.SegRows()})
		if err != nil || stats.DroppedSegments != 1 {
			t.Fatalf("%s: retain: %+v %v", name, stats, err)
		}
		sCol := src.Schema().ColIndex("s")
		if twin.DictView(sCol) != nil {
			t.Fatalf("%s: superseded version still has a DictView", name)
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
