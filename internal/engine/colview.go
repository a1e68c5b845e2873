package engine

import (
	"math"
	"sort"
	"sync"
)

var nan = math.NaN()

// This file implements the typed column views behind DBWipes' columnar
// scoring fast path, chunked on the same fixed-size row segments as the
// storage itself. A sealed segment IS its typed chunks (segment.go), so
// a view over it aliases them (held) or records the segment and pins
// through its loader at read time (faultable); nothing is decoded per
// view. Only the growable tail, which is boxed, has incremental decoders
// — one per column (tailFloat / the dictState's tail codes), extended by
// exactly the appended suffix; sealing finishes them into the new
// segment's chunks.
//
// Callers receive immutable per-version *snapshots* (FloatView /
// DictView): a window of per-segment chunk slices. Sealed chunks are
// aliased (immutable once built); the tail's value slice is aliased
// with a capacity clamp (extension writes only past every published
// snapshot's length) while tail NULL words are copied — a ≤
// segWords memcpy, the price of keeping bitset word boundaries
// immutable per snapshot. Segment sizes are ≥ 64 rows, so every
// segment's NULL words align with global bitset words: word w of
// segment k covers rows k*SegRows + [64w, 64w+64).
//
// Dictionary codes are family-global and assigned in first-appearance
// (stream row) order: a seal interns the rest of the tail, so every
// sealed row is interned and the only frontier is inside the tail. The
// dictionary itself (values, byStr) never shrinks — strings whose rows
// were all dropped by retention keep their codes.

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
	// epoch is the stream segment index of the current tail: the number
	// of segments ever sealed (retention never decrements it).
	epoch   int
	segBits uint
	// tailF holds the incremental float decoders of the current tail
	// epoch, dict the per-column family dictionary state.
	tailF map[int]*tailFloat
	dict  map[int]*dictState
	// fsnap/dsnap cache the most recently built snapshot per column.
	fsnap map[int]*FloatView
	dsnap map[int]*DictView
	aux   map[any]any
}

// tailFloat incrementally decodes the current tail epoch of one
// numeric column: rows [0, built) of the tail are decoded into vals
// and the NULL words (sized for a full segment up front, so extension
// never reallocates them).
type tailFloat struct {
	vals  []float64
	null  []uint64
	built int
}

// extend decodes tail rows [built, len(boxed)). The first call sizes
// vals for exactly its rows: a seal that starts from nothing allocates
// the chunk it will keep, no more.
func (tf *tailFloat) extend(boxed []Value) {
	if tf.vals == nil {
		tf.vals = make([]float64, 0, len(boxed))
	}
	for _, v := range boxed[tf.built:] {
		if v.IsNull() {
			tf.vals = append(tf.vals, nan)
			tf.null[tf.built>>6] |= 1 << (uint(tf.built) & 63)
		} else {
			tf.vals = append(tf.vals, v.Float())
		}
		tf.built++
	}
}

// tailFloatFor returns column c's tail decoder, creating it on first
// use. Caller holds mu.
func (vc *tableViews) tailFloatFor(c int) *tailFloat {
	if vc.tailF == nil {
		vc.tailF = make(map[int]*tailFloat)
	}
	tf := vc.tailF[c]
	if tf == nil {
		tf = &tailFloat{null: make([]uint64, segWordsOf(vc.segBits))}
		vc.tailF[c] = tf
	}
	return tf
}

// dictFor returns string column c's family dictionary, creating it on
// first use. Caller holds mu.
func (vc *tableViews) dictFor(c int) *dictState {
	if vc.dict == nil {
		vc.dict = make(map[int]*dictState)
	}
	ds := vc.dict[c]
	if ds == nil {
		ds = &dictState{byStr: make(map[string]int32)}
		vc.dict[c] = ds
	}
	return ds
}

// dictMark records the dictionary size right after a new string's
// first appearance: after stream row rows-1, nvals strings had been
// seen. Snapshots at older lengths use the marks to bound Values/Code
// exactly.
type dictMark struct {
	rows  int
	nvals int32
}

// dictState is one string column's family-level dictionary plus the
// codes of the current tail epoch.
type dictState struct {
	values []string
	byStr  map[string]int32
	// shared is true once byStr has been handed to a snapshot; the next
	// insertion then clones the map first (copy-on-grow), so published
	// snapshots never observe a map write.
	shared bool
	marks  []dictMark
	// tailCodes holds the codes of the current tail epoch's first
	// len(tailCodes) rows: the interning frontier.
	tailCodes []int32
}

// code interns v (stream row r) and returns its dictionary code.
func (ds *dictState) code(v Value, r int) int32 {
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
		ds.marks = append(ds.marks, dictMark{rows: r + 1, nvals: c + 1})
	}
	return c
}

// extendTail interns tail rows [len(tailCodes), len(boxed)); tailStart
// is the stream row of the tail's first row. Sized like tailFloat.extend.
func (ds *dictState) extendTail(boxed []Value, tailStart int) {
	if ds.tailCodes == nil {
		ds.tailCodes = make([]int32, 0, len(boxed))
	}
	for i := len(ds.tailCodes); i < len(boxed); i++ {
		ds.tailCodes = append(ds.tailCodes, ds.code(boxed[i], tailStart+i))
	}
}

// nvalsAt bounds the dictionary to the strings that had appeared by
// stream row end (marks record each first appearance).
func (ds *dictState) nvalsAt(end int) int32 {
	i := sort.Search(len(ds.marks), func(i int) bool { return ds.marks[i].rows > end })
	if i == 0 {
		return 0
	}
	return ds.marks[i-1].nvals
}

func (t *Table) viewCache() *tableViews {
	if t.views == nil {
		// Zero-value / legacy tables: allocate on first use. NewTable
		// initializes views, so this path is single-goroutine setup code.
		if t.bits == 0 {
			t.bits = DefaultSegmentBits
			t.mask = 1<<t.bits - 1
		}
		t.views = &tableViews{segBits: t.bits, hw: t.nrows}
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

// liveTail reports whether this version's tail is the family's current
// tail epoch (no newer version has sealed it yet).
func (t *Table) liveTailLocked() bool {
	return t.base>>t.bits+len(t.sealed) == t.views.epoch
}

// FloatView returns the float64 decoding of numeric column c at this
// table version's window, or nil when the column is not numeric. The
// returned view is an immutable snapshot; a held segment's chunk is
// aliased by every version containing the segment, and appended rows
// extend only the tail decoder.
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
	nsegs := len(t.sealed)
	tailLen := t.nrows - nsegs<<t.bits
	fv := &FloatView{n: t.nrows, bits: t.bits, mask: t.mask, col: c, tname: t.name}
	fv.segs = make([][]float64, 0, nsegs+1)
	fv.nulls = make([][]uint64, 0, nsegs+1)
	for k, seg := range t.sealed {
		if seg.faultable() {
			// Out-of-core segment: the snapshot records the segment, not
			// the data — chunks pin in through the loader at read time and
			// are never cached here (the pool is the only cache).
			if fv.fsegs == nil {
				fv.fsegs = make([]*segment, nsegs+1)
			}
			fv.fsegs[k] = seg
			fv.segs = append(fv.segs, nil)
			fv.nulls = append(fv.nulls, nil)
			continue
		}
		fv.segs = append(fv.segs, seg.chunks[c].Vals)
		fv.nulls = append(fv.nulls, seg.chunks[c].Null)
	}
	if tailLen > 0 {
		var vals []float64
		null := make([]uint64, (tailLen+63)>>6)
		if t.liveTailLocked() {
			tf := vc.tailFloatFor(c)
			if tf.built < tailLen {
				tf.extend(t.tail[c][:tailLen])
			}
			vals = tf.vals[:tailLen:tailLen]
			copy(null, tf.null)
			if rem := tailLen & 63; rem != 0 {
				null[len(null)-1] &= 1<<uint(rem) - 1
			}
		} else {
			// Superseded tail (the family has sealed past this version):
			// decode the partial window directly, uncached. Rare — only
			// versions already straddled by later appends land here.
			vals = make([]float64, tailLen)
			for i := 0; i < tailLen; i++ {
				if v := t.tail[c][i]; v.IsNull() {
					vals[i] = nan
					null[i>>6] |= 1 << (uint(i) & 63)
				} else {
					vals[i] = v.Float()
				}
			}
		}
		fv.segs = append(fv.segs, vals)
		fv.nulls = append(fv.nulls, null)
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
// column — or when the version predates the family's current retention
// base (callers then read cells through a RowReader; such stale
// snapshots are already superseded). Codes are append-stable
// (first-appearance order): sealed rows were interned by their seal, and
// the tail interns in stream-row order regardless of which version asks
// first.
func (t *Table) DictView(c int) *DictView {
	if c < 0 || c >= len(t.schema) || t.schema[c].Type != TString {
		return nil
	}
	vc := t.viewCache()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if t.base != vc.curBase {
		return nil
	}
	if s := vc.dsnap[c]; s != nil && s.n == t.nrows {
		return s
	}
	ds := vc.dictFor(c)
	end := t.base + t.nrows
	nsegs := len(t.sealed)
	tailLen := t.nrows - nsegs<<t.bits
	dv := &DictView{n: t.nrows, bits: t.bits, mask: t.mask, col: c, tname: t.name}
	dv.segs = make([][]int32, 0, nsegs+1)
	for k, seg := range t.sealed {
		if seg.faultable() {
			if dv.dsegs == nil {
				dv.dsegs = make([]*segment, nsegs+1)
			}
			dv.dsegs[k] = seg
			dv.segs = append(dv.segs, nil)
			continue
		}
		dv.segs = append(dv.segs, seg.chunks[c].Codes)
	}
	if tailLen > 0 {
		boxed, tailStart := t.tail[c][:tailLen], end-tailLen
		if t.liveTailLocked() {
			ds.extendTail(boxed, tailStart)
			dv.segs = append(dv.segs, ds.tailCodes[:tailLen:tailLen])
		} else {
			// Superseded tail: a newer version sealed these rows, so every
			// string is interned already and code only looks it up.
			codes := make([]int32, tailLen)
			for i, v := range boxed {
				codes[i] = ds.code(v, tailStart+i)
			}
			dv.segs = append(dv.segs, codes)
		}
	}
	nvals := ds.nvalsAt(end)
	dv.values = ds.values[:nvals:nvals]
	dv.byStr = ds.byStr
	dv.nvals = nvals
	ds.shared = true
	if end == vc.hw {
		if vc.dsnap == nil {
			vc.dsnap = make(map[int]*DictView)
		}
		vc.dsnap[c] = dv
	}
	return dv
}
