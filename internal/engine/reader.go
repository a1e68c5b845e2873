package engine

// This file is the read side of the storage spine. A segment — sealed or
// tail — IS its typed chunks (segment.go) and a published version's
// memory is never written, so a table version is its own snapshot:
// reading a column is walking the segment list the version already
// holds, one chunk at a time, through the one cursor below. Segment
// sizes are ≥ 64 rows, so every segment's NULL words align with global
// bitset words: word w of segment k covers rows k*SegRows + [64w, 64w+64).

// ColReader reads one column of one table version a segment at a time:
// the chunk a segment holds as it stands (no lock, no pin, no copy), or
// a faultable segment's under ONE pin held until the reader moves to
// another segment or closes — so a sequential loop costs O(rows)
// regardless of chunk and pool size, and at most one chunk per reader
// is ever pinned (two for an int-like column whose float64s have
// rounded, see RowReader.Value). The reader holds the version by value:
// later appends, seals and retention passes of the family leave what it
// reads untouched.
//
// A ColReader is NOT safe for concurrent use — open one per goroutine —
// and MUST be Closed (defer it) so a held pin releases on every exit
// path, including panics and cancellation. A chunk-load failure panics
// *SegmentLoadError; loops that surface errors run under
// CatchSegmentLoad.
type ColReader struct {
	t       Table
	col     int
	typ     Type
	seg     int       // current segment (-1 = none)
	ch      Chunk     // its chunk; Ints pinned on the segment's first |v| ≥ 2^53 boxed read
	dict    []string  // the dictionary the chunk's codes index
	release [2]func() // a faultable segment's pins: the typed chunk's, the exact chunk's

	faulted, resident int
}

// NewColReader returns a reader over column c of this version's rows.
func (t *Table) NewColReader(c int) *ColReader {
	r := new(ColReader)
	r.open(t, c)
	return r
}

func (r *ColReader) open(t *Table, c int) {
	if !t.fam.read.Load() {
		t.fam.read.Store(true)
	}
	r.t, r.col, r.typ, r.seg = *t, c, t.schema[c].Type, -1
}

// Floats returns segment k of a numeric column: its float64 coercion
// (NaN at NULL — consult the NULL words to tell a stored NaN from a
// NULL) and its NULL bitmap words, as long as the version's rows in the
// segment and carrying no bit past them; both nil for a string column.
// The slices are read-only and valid until the reader moves or closes.
func (r *ColReader) Floats(k int) (vals []float64, null []uint64) {
	if k != r.seg {
		r.move(k)
	}
	return r.ch.Vals, r.ch.Null
}

// Codes returns segment k of a string column as dictionary codes (-1 =
// NULL) indexing the version's Dict; nil for a numeric column. Same
// validity as Floats.
func (r *ColReader) Codes(k int) []int32 {
	if k != r.seg {
		r.move(k)
	}
	return r.ch.Codes
}

// Float returns row i's float64 and NULL flag.
func (r *ColReader) Float(i int) (v float64, null bool) {
	if k := i >> r.t.bits; k != r.seg {
		r.move(k)
	}
	off := i & r.t.mask
	return r.ch.Vals[off], r.ch.Null[off>>6]&(1<<(uint(off)&63)) != 0
}

// Code returns row i's dictionary code (-1 = NULL).
func (r *ColReader) Code(i int) int32 {
	if k := i >> r.t.bits; k != r.seg {
		r.move(k)
	}
	return r.ch.Codes[i&r.t.mask]
}

// Counters reports how many segment crossings pinned a chunk that missed
// to disk vs were served resident (held, or a pool hit) so far.
func (r *ColReader) Counters() (faulted, resident int) { return r.faulted, r.resident }

// Close releases the held pins. Idempotent.
func (r *ColReader) Close() {
	for i, release := range r.release {
		if release != nil {
			release()
			r.release[i] = nil
		}
	}
	r.seg, r.ch = -1, Chunk{}
}

// move points the reader at segment k's chunk, pinning it when the
// segment is faultable. A version's tail headers and NULL words are its
// own (forkTail), so a held chunk is already clamped to the version.
func (r *ColReader) move(k int) {
	r.Close()
	s := r.t.segAt(k)
	r.dict = s.dicts[r.col]
	switch {
	case s.chunks != nil:
		r.ch = s.chunks[r.col]
		r.resident++
	case r.typ == TString:
		codes, release, missed, err := s.loader.PinCodes(s.streamIdx, r.col)
		r.pinned(s, 0, release, missed, err)
		r.ch.Codes = codes
	default:
		vals, null, release, missed, err := s.loader.PinFloat(s.streamIdx, r.col)
		r.pinned(s, 0, release, missed, err)
		r.ch.Vals, r.ch.Null = vals, null
	}
	r.seg = k
}

// pinned accounts one loader pin of segment s, or panics its failure.
func (r *ColReader) pinned(s *segment, slot int, release func(), missed bool, err error) {
	if err != nil {
		panic(&SegmentLoadError{Table: r.t.name, Seg: s.streamIdx, Col: r.col, Err: err})
	}
	r.release[slot] = release
	if missed {
		r.faulted++
	} else {
		r.resident++
	}
}

// exact boxes an int-like cell whose float64 has rounded out of a
// faultable segment's exact int64 chunk, pinned here the first time a
// cell of the segment needs it.
func (r *ColReader) exact(off int) Value {
	s := r.t.sealed[r.seg]
	cells, release, missed, err := s.loader.PinInt(s.streamIdx, r.col)
	r.pinned(s, 1, release, missed, err)
	r.ch.Ints = cells
	return Value{T: r.typ, I: cells[off]}
}

// faultedCell boxes one cell of a faultable segment under a transient
// pin — Table.Value's arm; loops should hold a RowReader instead.
func (t *Table) faultedCell(row, col int) Value {
	var r ColReader
	r.open(t, col)
	defer r.Close()
	r.move(row >> t.bits)
	v, rounded := r.ch.cell(r.typ, r.dict, row&t.mask)
	if rounded {
		v = r.exact(row & t.mask)
	}
	return v
}

// RowReader serves per-row boxed reads (Value, RowInto) over a scan
// loop: one ColReader per column, engaged on the column's first read,
// plus boxing. Nobody stores a Value, so the reader boxes the one cell it
// was asked for out of the chunk the typed scan reads — PinFloat for
// numeric columns, PinCodes plus the segment's dictionary for strings —
// and shares its pool entry. Same contract as ColReader: one per
// goroutine, Close on every exit path, *SegmentLoadError panics.
type RowReader struct {
	cols []ColReader
}

// NewRowReader returns a reader over this version's rows.
func (t *Table) NewRowReader() *RowReader {
	rr := &RowReader{cols: make([]ColReader, len(t.schema))}
	for c := range rr.cols {
		rr.cols[c].open(t, c)
	}
	return rr
}

// Value returns the value at (row, col); the RowReader counterpart of
// Table.Value. The executor's per-row evaluator reads the cells of the
// columns an expression names through it.
func (rr *RowReader) Value(row, col int) Value {
	r := &rr.cols[col]
	if k := row >> r.t.bits; k != r.seg {
		r.move(k)
	}
	// Spelled out here and in faultedCell, not shared: one more call level
	// copies the 40-byte Value once more and doubles the cost of a read.
	v, rounded := r.ch.cell(r.typ, r.dict, row&r.t.mask)
	if rounded {
		v = r.exact(row & r.t.mask)
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

// Counters sums the columns' ColReader.Counters.
func (rr *RowReader) Counters() (faulted, resident int) {
	for c := range rr.cols {
		faulted += rr.cols[c].faulted
		resident += rr.cols[c].resident
	}
	return faulted, resident
}

// Close releases every held pin. Idempotent.
func (rr *RowReader) Close() {
	for c := range rr.cols {
		rr.cols[c].Close()
	}
}
