package engine

// RowReader serves per-row boxed reads (Value, RowInto) over a scan
// loop. No segment, the tail included, has boxed cells anywhere, so the
// reader boxes the one cell it was asked for out of the column's typed
// chunk (cellCursor) — the chunk the segment holds, or the one the
// buffer pool already serves the scan with: PinFloat for numeric
// columns, PinCodes plus the segment's dictionary for strings — so a
// read costs what a typed-view read costs and shares its pool entry.
// Table.Value and Table.RowInto do the same PER CELL, a faultable
// segment's under a transient pin; a RowReader holds one cursor per
// column and moves it on segment crossings, exactly like the typed
// views' PinSeg, making sequential row loops O(rows) regardless of chunk
// and pool size.
//
// A RowReader is NOT safe for concurrent use — create one per
// goroutine — and MUST be Closed (defer it) so held pins release on
// every exit path, including panics and cancellation. A chunk-load
// failure panics SegmentLoadError, like the typed views; loops that
// surface errors run under CatchSegmentLoad.
type RowReader struct {
	t   *Table
	cur []cellCursor // one per column, lazily engaged
}

// NewRowReader returns a reader over the table's current rows.
func (t *Table) NewRowReader() *RowReader {
	rr := &RowReader{t: t, cur: make([]cellCursor, len(t.schema))}
	for c := range rr.cur {
		rr.cur[c].seg = -1
	}
	return rr
}

// Value returns the value at (row, col); the RowReader counterpart of
// Table.Value (and like it, an expr.ColumnSource).
func (rr *RowReader) Value(row, col int) Value {
	t := rr.t
	k := row >> t.bits
	cur := &rr.cur[col]
	if cur.seg != k {
		cur.move(t, k, col)
	}
	// Spelled out here and in faultedCell, not shared: one more call level
	// copies the 40-byte Value once more and doubles the cost of a read.
	v, rounded := cur.ch.cell(t.schema[col].Type, cur.dict, row&t.mask)
	if rounded {
		v = cur.exact(t, col, row&t.mask)
	}
	return v
}

// RowInto copies row i into dst (len == NumCols); the RowReader
// counterpart of Table.RowInto.
func (rr *RowReader) RowInto(i int, dst []Value) {
	for c := range dst {
		dst[c] = rr.Value(i, c)
	}
}

// Counters reports how many chunk pins missed to disk vs were served
// resident over the reader's lifetime so far.
func (rr *RowReader) Counters() (faulted, resident int) {
	for c := range rr.cur {
		faulted += rr.cur[c].faulted
		resident += rr.cur[c].resident
	}
	return faulted, resident
}

// Close releases every held pin. Idempotent.
func (rr *RowReader) Close() {
	for c := range rr.cur {
		rr.cur[c].close()
	}
}

// cellCursor boxes single cells of one column out of one segment's
// chunk at a time: the held chunk itself (no lock, no pin), or a
// faultable segment's pinned one.
type cellCursor struct {
	seg     int       // current segment (-1 = none)
	ch      Chunk     // its chunk; Ints pinned on the segment's first |v| ≥ 2^53 read
	dict    []string  // the dictionary the chunk's codes index
	release [2]func() // a faultable segment's pins: the typed chunk's, the exact chunk's

	faulted, resident int
}

func (cur *cellCursor) count(missed bool) {
	if missed {
		cur.faulted++
	} else {
		cur.resident++
	}
}

// move points the cursor at col's chunk of segment k, pinning it when
// the segment is faultable.
func (cur *cellCursor) move(t *Table, k, col int) {
	cur.close()
	s := t.segAt(k)
	cur.dict = s.dicts[col]
	var missed bool
	switch {
	case s.chunks != nil:
		cur.ch = s.chunks[col]
	case t.schema[col].Type == TString:
		cur.ch.Codes, cur.release[0], missed = s.pinCodes(t.name, col)
	default:
		cur.ch.Vals, cur.ch.Null, cur.release[0], missed = s.pinFloat(t.name, col)
	}
	cur.seg = k
	cur.count(missed)
}

// exact boxes an int-like cell whose float64 has rounded out of a
// faultable segment's exact int64 chunk, pinned here the first time a
// cell of the segment needs it.
func (cur *cellCursor) exact(t *Table, col, off int) Value {
	var missed bool
	cur.ch.Ints, cur.release[1], missed = t.sealed[cur.seg].pinInt(t.name, col)
	cur.count(missed)
	return Value{T: t.schema[col].Type, I: cur.ch.Ints[off]}
}

// close releases the held pins. Idempotent.
func (cur *cellCursor) close() {
	for i, release := range cur.release {
		if release != nil {
			release()
			cur.release[i] = nil
		}
	}
	cur.seg, cur.ch = -1, Chunk{}
}

// faultedCell boxes one cell of faultable segment k under a transient
// pin — Table.Value's arm; loops should hold a RowReader instead.
func (t *Table) faultedCell(k, col, off int) Value {
	cur := cellCursor{seg: -1}
	defer cur.close()
	cur.move(t, k, col)
	v, rounded := cur.ch.cell(t.schema[col].Type, cur.dict, off)
	if rounded {
		v = cur.exact(t, col, off)
	}
	return v
}

// FloatReader is the typed-view counterpart of RowReader: per-row
// reads of one FloatView through a pin held per segment instead of per
// row. Same contract: one per goroutine, Close on every exit path,
// SegmentLoadError panics on chunk-load failure. On resident chunks it
// adds only a segment-index compare per read.
type FloatReader struct {
	fv          *FloatView
	shift       uint
	mask        int
	seg         int // currently pinned segment (-1 = none)
	vals        []float64
	null        []uint64
	release     func()
	faulted     int
	residentHit int
}

// NewReader returns a per-goroutine reader over the view.
func (f *FloatView) NewReader() *FloatReader {
	return &FloatReader{fv: f, shift: f.bits, mask: f.mask, seg: -1}
}

func (r *FloatReader) load(k int) {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	vals, null, release, missed := r.fv.PinSeg(k)
	r.vals, r.null, r.release, r.seg = vals, null, release, k
	if missed {
		r.faulted++
	} else {
		r.residentHit++
	}
}

// At returns row i's value and NULL flag.
func (r *FloatReader) At(i int) (float64, bool) {
	if k := i >> r.shift; k != r.seg {
		r.load(k)
	}
	off := i & r.mask
	return r.vals[off], r.null[off>>6]&(1<<(uint(off)&63)) != 0
}

// V returns row i's value (NaN when NULL), like FloatView.V.
func (r *FloatReader) V(i int) float64 {
	if k := i >> r.shift; k != r.seg {
		r.load(k)
	}
	return r.vals[i&r.mask]
}

// Chunk pins segment k and returns its value slice and NULL bitmap
// (word j covers rows [k<<bits + 64j, …)) — the batch counterpart of
// At for kernels that fold a whole segment under a filter mask. The
// slices stay valid until the reader pins a different segment or
// closes; callers must not mutate them. The last segment's slices may
// be shorter than a full segment.
func (r *FloatReader) Chunk(k int) (vals []float64, null []uint64) {
	if k != r.seg {
		r.load(k)
	}
	return r.vals, r.null
}

// SegRows returns the rows-per-segment stride of the underlying view.
func (r *FloatReader) SegRows() int { return r.mask + 1 }

// Counters reports chunk pins that missed to disk vs were resident.
func (r *FloatReader) Counters() (faulted, resident int) {
	return r.faulted, r.residentHit
}

// Close releases the held pin. Idempotent.
func (r *FloatReader) Close() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	r.seg = -1
}

// DictReader is FloatReader's dictionary-code twin.
type DictReader struct {
	dv          *DictView
	shift       uint
	mask        int
	seg         int
	codes       []int32
	release     func()
	faulted     int
	residentHit int
}

// NewReader returns a per-goroutine reader over the view.
func (d *DictView) NewReader() *DictReader {
	return &DictReader{dv: d, shift: d.bits, mask: d.mask, seg: -1}
}

func (r *DictReader) load(k int) {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	codes, release, missed := r.dv.PinSeg(k)
	r.codes, r.release, r.seg = codes, release, k
	if missed {
		r.faulted++
	} else {
		r.residentHit++
	}
}

// CodeAt returns row i's dictionary code (-1 = NULL), like
// DictView.CodeAt.
func (r *DictReader) CodeAt(i int) int32 {
	if k := i >> r.shift; k != r.seg {
		r.load(k)
	}
	return r.codes[i&r.mask]
}

// Chunk pins segment k and returns its codes — FloatReader.Chunk's twin,
// same validity contract.
func (r *DictReader) Chunk(k int) []int32 {
	if k != r.seg {
		r.load(k)
	}
	return r.codes
}

// Counters reports chunk pins that missed to disk vs were resident.
func (r *DictReader) Counters() (faulted, resident int) {
	return r.faulted, r.residentHit
}

// Close releases the held pin. Idempotent.
func (r *DictReader) Close() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	r.seg = -1
}
