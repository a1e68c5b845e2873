package engine

import (
	"math"
	"sync"
)

var nan = math.NaN()

// This file implements the typed column views behind DBWipes' columnar
// scoring fast path, chunked on the same fixed-size row segments as the
// storage itself. A segment — sealed or tail — IS its typed chunks
// (segment.go), so a view aliases them (held) or records the segment
// and pins through its loader at read time (faultable); nothing is
// decoded, for any version of the family.
//
// Callers receive immutable per-version *snapshots* (FloatView /
// DictView): a window of per-segment chunk slices under a capacity
// clamp. Appends write only past every published length and each
// version owns its tail NULL words, so a snapshot never changes and
// carries no bits past its length. Segment sizes are ≥ 64 rows, so
// every segment's NULL words align with global bitset words: word w of
// segment k covers rows k*SegRows + [64w, 64w+64).
//
// Dictionary codes are family-global and assigned at append, in
// first-appearance (stream row) order. The dictionary itself (values,
// byStr) never shrinks — strings whose rows were all dropped by
// retention keep their codes — and each version bounds it at the
// strings its own rows had seen.

// FloatView is a decoded numeric column over one table version: a
// window of per-segment chunks. V(i) is row i's value coerced to
// float64 (NaN for NULL — consult IsNull to distinguish a stored NaN
// from a NULL).
//
// A faultable segment (out-of-core, see fault.go) keeps nil entries in
// segs/nulls and a segment pointer in fsegs: PinSeg faults its chunk
// in under a pin, and the per-row accessors (V, IsNull) fall back to a
// transient pin per call — correct but slow; scan loops should hold a
// PinSeg pin per segment instead.
type FloatView struct {
	segs  [][]float64
	nulls [][]uint64
	n     int
	bits  uint
	mask  int
	// fsegs[k] is non-nil iff segment k is faultable; col/tname address
	// the chunk through the segment's loader.
	fsegs []*segment
	col   int
	tname string
}

// Len returns the number of rows the view covers.
func (f *FloatView) Len() int { return f.n }

// V returns row i's float64 value (NaN when NULL).
func (f *FloatView) V(i int) float64 {
	if s := f.segs[i>>f.bits]; s != nil {
		return s[i&f.mask]
	}
	vals, _, release, _ := f.fsegs[i>>f.bits].pinFloat(f.tname, f.col)
	v := vals[i&f.mask]
	release()
	return v
}

// IsNull reports whether row i is NULL.
func (f *FloatView) IsNull(i int) bool {
	off := i & f.mask
	if null := f.nulls[i>>f.bits]; null != nil {
		return null[off>>6]&(1<<(uint(off)&63)) != 0
	}
	_, null, release, _ := f.fsegs[i>>f.bits].pinFloat(f.tname, f.col)
	v := null[off>>6]&(1<<(uint(off)&63)) != 0
	release()
	return v
}

// NumSegs returns the number of segment chunks in the window (the last
// may be partial).
func (f *FloatView) NumSegs() int { return len(f.segs) }

// Seg returns segment k's value slice (read-only); its length is the
// number of view rows in the segment. For a faultable segment the
// chunk is faulted under a transient pin — the slice stays valid (the
// pool evicting it only drops its reference), but callers that read
// many segments should prefer PinSeg so residency accounting sees the
// access.
func (f *FloatView) Seg(k int) []float64 {
	if s := f.segs[k]; s != nil {
		return s
	}
	vals, _, release, _ := f.fsegs[k].pinFloat(f.tname, f.col)
	release()
	return vals
}

// NullSeg returns segment k's NULL bitmap words (read-only). Word w
// covers rows SegStart(k) + [64w, 64w+64); segments are word-aligned,
// so these concatenate into the view-global NULL bitmap. Faultable
// segments behave as in Seg.
func (f *FloatView) NullSeg(k int) []uint64 {
	if s := f.nulls[k]; s != nil {
		return s
	}
	_, null, release, _ := f.fsegs[k].pinFloat(f.tname, f.col)
	release()
	return null
}

// SegFaultable reports whether segment k's chunk loads on demand (nil
// in the resident window).
func (f *FloatView) SegFaultable(k int) bool { return f.fsegs != nil && f.fsegs[k] != nil }

// PinSeg returns segment k's value slice and NULL words under a pin.
// release must be called exactly once when the caller stops reading;
// missed reports a backing-store fault (false = resident or pool hit).
// Chunk-load failures panic *SegmentLoadError (see CatchSegmentLoad).
func (f *FloatView) PinSeg(k int) (vals []float64, null []uint64, release func(), missed bool) {
	if s := f.segs[k]; s != nil {
		return s, f.nulls[k], releaseNoop, false
	}
	return f.fsegs[k].pinFloat(f.tname, f.col)
}

// SegStart returns the first view row of segment k.
func (f *FloatView) SegStart(k int) int { return k << f.bits }

// SegRows returns the rows-per-segment of the view's geometry.
func (f *FloatView) SegRows() int { return 1 << f.bits }

// DictView is a dictionary-encoded string column over one table
// version: per-segment code chunks plus the family dictionary.
// CodeAt(i) indexes Values, or is -1 for NULL. Values lists the
// distinct strings in first-appearance order — which makes codes
// append-stable: a string's code never changes as rows are appended,
// so views of different table versions agree on every shared code.
type DictView struct {
	segs [][]int32
	n    int
	bits uint
	mask int
	// values is the dictionary bounded to this snapshot's rows.
	values []string
	byStr  map[string]int32
	// nvals bounds Code lookups: the shared byStr map may contain
	// strings that first appear after this snapshot's last row (their
	// codes are >= nvals), and those must read as absent here.
	nvals int32
	// dsegs[k] is non-nil iff segment k is faultable (codes pinned on
	// demand, see FloatView's fsegs).
	dsegs []*segment
	col   int
	tname string
}

// Len returns the number of rows the view covers.
func (d *DictView) Len() int { return d.n }

// CodeAt returns row i's dictionary code (-1 for NULL).
func (d *DictView) CodeAt(i int) int32 {
	if s := d.segs[i>>d.bits]; s != nil {
		return s[i&d.mask]
	}
	codes, release, _ := d.dsegs[i>>d.bits].pinCodes(d.tname, d.col)
	c := codes[i&d.mask]
	release()
	return c
}

// NumSegs returns the number of segment chunks in the window.
func (d *DictView) NumSegs() int { return len(d.segs) }

// Seg returns segment k's code slice (read-only). Faultable segments
// are faulted under a transient pin (see FloatView.Seg).
func (d *DictView) Seg(k int) []int32 {
	if s := d.segs[k]; s != nil {
		return s
	}
	codes, release, _ := d.dsegs[k].pinCodes(d.tname, d.col)
	release()
	return codes
}

// SegFaultable reports whether segment k's codes load on demand.
func (d *DictView) SegFaultable(k int) bool { return d.dsegs != nil && d.dsegs[k] != nil }

// PinSeg returns segment k's codes under a pin (contract as in
// FloatView.PinSeg).
func (d *DictView) PinSeg(k int) (codes []int32, release func(), missed bool) {
	if s := d.segs[k]; s != nil {
		return s, releaseNoop, false
	}
	return d.dsegs[k].pinCodes(d.tname, d.col)
}

// SegStart returns the first view row of segment k.
func (d *DictView) SegStart(k int) int { return k << d.bits }

// Values returns the distinct strings in first-appearance order,
// bounded to this snapshot's rows. Read-only.
func (d *DictView) Values() []string { return d.values }

// NumValues returns the number of distinct strings within this
// snapshot's rows.
func (d *DictView) NumValues() int { return int(d.nvals) }

// Value returns the string of a code returned by CodeAt.
func (d *DictView) Value(code int32) string { return d.values[code] }

// Code returns the dictionary code of s, or -1 when s does not occur in
// the column (within this snapshot's rows).
func (d *DictView) Code(s string) int32 {
	if c, ok := d.byStr[s]; ok && c < d.nvals {
		return c
	}
	return -1
}

// tableViews is the per-table-family view cache and version state. It
// lives behind a pointer so Rename's, AppendBatch's and RetainTail's
// shallow copies share it (shared storage, shared cache) and so the
// Table struct stays copyable without copying a lock.
type tableViews struct {
	mu sync.Mutex
	// pub is the family's publication counter: each AppendBatch or
	// RetainTail bumps it, and mutations require the acting version to
	// carry the current stamp — the linear-history check.
	pub uint64
	// hw is the family's stream high-water mark (rows ever appended);
	// curBase the newest version's retention base.
	hw      int
	curBase int
	// dict[c] is string column c's family dictionary (nil for the rest).
	dict []*dictState
	// fsnap/dsnap cache the most recently built snapshot per column.
	fsnap map[int]*FloatView
	dsnap map[int]*DictView
	aux   map[any]any
}

// newTableViews returns the family state of an empty table.
func newTableViews(schema Schema) *tableViews {
	vc := &tableViews{dict: make([]*dictState, len(schema))}
	for c, col := range schema {
		if col.Type == TString {
			vc.dict[c] = &dictState{byStr: make(map[string]int32)}
		}
	}
	return vc
}

// dictState is one string column's family-level dictionary.
type dictState struct {
	values []string
	byStr  map[string]int32
	// shared is true once byStr has been handed to a snapshot; the next
	// insertion then clones the map first (copy-on-grow), so published
	// snapshots never observe a map write.
	shared bool
}

// code interns v and returns its dictionary code (-1 for NULL).
func (ds *dictState) code(v Value) int32 {
	if v.IsNull() {
		return -1
	}
	c, ok := ds.byStr[v.S]
	if !ok {
		if ds.shared {
			clone := make(map[string]int32, len(ds.byStr)+1)
			for k, cv := range ds.byStr {
				clone[k] = cv
			}
			ds.byStr = clone
			ds.shared = false
		}
		c = int32(len(ds.values))
		ds.byStr[v.S] = c
		ds.values = append(ds.values, v.S)
	}
	return c
}

func (t *Table) viewCache() *tableViews {
	if t.views == nil {
		// Zero-value / legacy tables: allocate on first use. NewTable
		// initializes views, so this path is single-goroutine setup code.
		if t.bits == 0 {
			t.bits = DefaultSegmentBits
			t.mask = 1<<t.bits - 1
		}
		t.views = newTableViews(t.schema)
	}
	return t.views
}

// RowSynced is implemented by aux cache values (AuxLoadOrStore) that
// maintain per-row derived state — e.g. the executor's predicate index
// with its cached clause masks. AuxLoadOrStore calls SyncRows with the
// requesting table version on every access, so the value can extend
// itself to a grown snapshot (decoding only the appended suffix) — or
// rebase itself after retention by dropping whole head segments —
// instead of being rebuilt from row 0.
type RowSynced interface {
	SyncRows(t *Table)
}

// AuxLoadOrStore returns the per-table auxiliary cache entry for key,
// building it with build on first request. Entries share the table
// family's lifetime (and its Rename/AppendBatch/RetainTail copies),
// which lets higher layers — the executor's predicate index, for
// instance — cache derived structures per table without a
// process-global map that outlives the table. build may run more than
// once under a race; exactly one result wins. Values implementing
// RowSynced are notified of the requesting table version before being
// returned.
func (t *Table) AuxLoadOrStore(key any, build func() any) any {
	v := t.auxLoadOrStore(key, build)
	if rs, ok := v.(RowSynced); ok {
		rs.SyncRows(t)
	}
	return v
}

func (t *Table) auxLoadOrStore(key any, build func() any) any {
	vc := t.viewCache()
	vc.mu.Lock()
	if v, ok := vc.aux[key]; ok {
		vc.mu.Unlock()
		return v
	}
	vc.mu.Unlock()
	v := build()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.aux == nil {
		vc.aux = make(map[any]any)
	}
	if prev, ok := vc.aux[key]; ok {
		return prev
	}
	vc.aux[key] = v
	return v
}

// FloatView returns the float64 coercion of numeric column c at this
// table version's window, or nil when the column is not numeric. The
// returned view is an immutable snapshot aliasing the chunks of every
// held segment, the tail included.
func (t *Table) FloatView(c int) *FloatView {
	if c < 0 || c >= len(t.schema) || !t.schema[c].Type.IsNumeric() {
		return nil
	}
	vc := t.viewCache()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	// The cache only ever holds the newest window at the current base
	// (RetainTail clears it); within one base, equal length pins it to
	// exactly this version's window.
	if s := vc.fsnap[c]; s != nil && s.n == t.nrows && vc.curBase == t.base {
		return s
	}
	nwin := (t.nrows + t.mask) >> t.bits
	fv := &FloatView{n: t.nrows, bits: t.bits, mask: t.mask, col: c, tname: t.name}
	fv.segs = make([][]float64, nwin)
	fv.nulls = make([][]uint64, nwin)
	for k := range fv.segs {
		seg := t.segAt(k)
		if seg.faultable() {
			// Out-of-core segment: the snapshot records the segment, not
			// the data — chunks pin in through the loader at read time and
			// are never cached here (the pool is the only cache).
			if fv.fsegs == nil {
				fv.fsegs = make([]*segment, nwin)
			}
			fv.fsegs[k] = seg
			continue
		}
		rows := min(t.nrows-k<<t.bits, 1<<t.bits)
		words := (rows + 63) >> 6
		fv.segs[k] = seg.chunks[c].Vals[:rows:rows]
		fv.nulls[k] = seg.chunks[c].Null[:words:words]
	}
	if t.base == vc.curBase && t.base+t.nrows == vc.hw {
		if vc.fsnap == nil {
			vc.fsnap = make(map[int]*FloatView)
		}
		vc.fsnap[c] = fv
	}
	return fv
}

// DictView returns the dictionary encoding of string column c at this
// table version's window, or nil when the column is not a string
// column. Codes are append-stable (first-appearance order, assigned at
// append), so views of different versions agree on every shared code.
func (t *Table) DictView(c int) *DictView {
	if c < 0 || c >= len(t.schema) || t.schema[c].Type != TString {
		return nil
	}
	vc := t.viewCache()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if s := vc.dsnap[c]; s != nil && s.n == t.nrows && vc.curBase == t.base {
		return s
	}
	nwin := (t.nrows + t.mask) >> t.bits
	values := t.tail.dicts[c]
	dv := &DictView{n: t.nrows, bits: t.bits, mask: t.mask, col: c, tname: t.name,
		values: values, byStr: vc.dict[c].byStr, nvals: int32(len(values))}
	vc.dict[c].shared = true
	dv.segs = make([][]int32, nwin)
	for k := range dv.segs {
		seg := t.segAt(k)
		if seg.faultable() {
			if dv.dsegs == nil {
				dv.dsegs = make([]*segment, nwin)
			}
			dv.dsegs[k] = seg
			continue
		}
		rows := min(t.nrows-k<<t.bits, 1<<t.bits)
		dv.segs[k] = seg.chunks[c].Codes[:rows:rows]
	}
	if t.base == vc.curBase && t.base+t.nrows == vc.hw {
		if vc.dsnap == nil {
			vc.dsnap = make(map[int]*DictView)
		}
		vc.dsnap[c] = dv
	}
	return dv
}
