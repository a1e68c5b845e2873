// Package enginetest builds out-of-core twins of resident tables for
// the tests of the typed read path: an in-memory engine.ChunkLoader that
// counts pins by chunk kind, tracks outstanding pins and fails on
// demand, a row generator that covers every cell a float64 or a
// lower-cased rendering would get wrong, and the append-batch sizes and
// retention steps the incremental harnesses draw their histories from.
//
// Like internal/testgen it is a non-test package so several layers'
// _test files can share it (it imports only the engine, so the
// executor's in-package tests can use it too); it must not be imported
// from production code.
package enginetest

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/engine"
)

// Loader serves src's sealed segments as typed chunks, decoded on every
// pin. The counters are guarded by the loader's own lock; read them
// through Counts.
type Loader struct {
	src *engine.Table

	mu                  sync.Mutex
	floats, codes, ints int
	pinned              int
	// Fail, when set, is asked before every pin; a non-nil error fails
	// it. Tests close over their own state to fail the n-th pin.
	Fail func(seg, col int) error
}

var _ engine.ChunkLoader = (*Loader)(nil)

// New returns an empty twin of src — same schema and segment size, the
// string dictionaries preloaded in src's code order — and the loader
// that will serve src's segments to it.
func New(src *engine.Table) (*engine.Table, *Loader) {
	twin, err := engine.NewTableSeg(src.Name(), src.Schema(), src.SegmentBits())
	if err != nil {
		panic(err)
	}
	for c, col := range src.Schema() {
		if col.Type == engine.TString {
			if err := twin.PreloadDict(c, src.Dict(c).Values()); err != nil {
				panic(err)
			}
		}
	}
	return twin, &Loader{src: src}
}

// Faultable returns a twin holding every sealed segment of src as a
// faultable segment and src's tail rows resident: cell for cell the
// same table, none of whose sealed rows exists boxed anywhere.
func Faultable(src *engine.Table) (*engine.Table, *Loader) {
	twin, l := New(src)
	sealed, tail := src.NumSegments()
	for k := 0; k < sealed; k++ {
		twin = l.Attach(twin)
	}
	twin, err := twin.AppendCols(src.Batch(src.NumRows()-tail, src.NumRows()), 0, tail)
	if err != nil {
		panic(err)
	}
	return twin, l
}

// Attach returns t grown by the next sealed segment of src (the one at
// t's own segment count), faultable through the loader, no zone maps.
func (l *Loader) Attach(t *engine.Table) *engine.Table {
	nt, err := t.AttachSegment(l, nil)
	if err != nil {
		panic(err)
	}
	return nt
}

// Counts reports the pins served so far by chunk kind and the pins not
// yet released.
func (l *Loader) Counts() (floats, codes, ints, pinned int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floats, l.codes, l.ints, l.pinned
}

// pin accounts one pin of (seg, col) under counter and returns its
// release, or the injected failure.
func (l *Loader) pin(seg, col int, counter *int) (func(), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Fail != nil {
		if err := l.Fail(seg, col); err != nil {
			return nil, err
		}
	}
	*counter++
	l.pinned++
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			l.pinned--
			l.mu.Unlock()
		})
	}, nil
}

// PinFloat implements engine.ChunkLoader. Every pin reports a miss.
func (l *Loader) PinFloat(seg, col int) ([]float64, []uint64, func(), bool, error) {
	release, err := l.pin(seg, col, &l.floats)
	if err != nil {
		return nil, nil, nil, true, err
	}
	n := l.src.SegRows()
	vals, null := make([]float64, n), make([]uint64, n/64)
	for i := range vals {
		if v := l.src.Value(seg*n+i, col); v.IsNull() {
			vals[i] = math.NaN()
			null[i>>6] |= 1 << (uint(i) & 63)
		} else {
			vals[i] = v.Float()
		}
	}
	return vals, null, release, true, nil
}

// PinCodes implements engine.ChunkLoader.
func (l *Loader) PinCodes(seg, col int) ([]int32, func(), bool, error) {
	release, err := l.pin(seg, col, &l.codes)
	if err != nil {
		return nil, nil, true, err
	}
	r := l.src.NewColReader(col)
	defer r.Close()
	return slices.Clone(r.Codes(seg)), release, true, nil
}

// PinInt implements engine.ChunkLoader.
func (l *Loader) PinInt(seg, col int) ([]int64, func(), bool, error) {
	release, err := l.pin(seg, col, &l.ints)
	if err != nil {
		return nil, nil, true, err
	}
	n := l.src.SegRows()
	cells := make([]int64, n)
	for i := range cells {
		cells[i] = l.src.Value(seg*n+i, col).I
	}
	return cells, release, true, nil
}

// EdgeSchema is EdgeRow's shape: one column of every stored type.
func EdgeSchema() engine.Schema {
	return engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "b", Type: engine.TBool},
		{Name: "s", Type: engine.TString},
		{Name: "t", Type: engine.TTime},
	}
}

var (
	edgeInts = []int64{0, 1, -1, 7, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	edgeStrs = []string{"a", "A", "", "xy", "Xy"}
	// Two NaNs with different payloads, one negative: a float64 carries
	// them, a canonical NaN does not.
	edgeNaNs = []uint64{0x7FF8000000000001, 0xFFF8000000000abc}
)

// EdgeRow draws one NULL-heavy row of EdgeSchema from the values a
// lossy read path mangles: ints at and past ±2^53 (where float64(int64)
// rounds), NaNs with payloads, signed zeros, strings differing only in
// case, times past 2^53 seconds. The few distinct values per column
// make every one of them a group's first row sooner or later.
func EdgeRow(rng *rand.Rand) []engine.Value {
	row := make([]engine.Value, 5)
	null := func() bool { return rng.Float64() < 0.2 }
	if !null() {
		row[0] = engine.NewInt(edgeInts[rng.Intn(len(edgeInts))])
	}
	if !null() {
		switch rng.Intn(5) {
		case 0:
			row[1] = engine.NewFloat(math.Float64frombits(edgeNaNs[rng.Intn(len(edgeNaNs))]))
		case 1:
			row[1] = engine.NewFloat(math.Copysign(0, -1))
		case 2:
			row[1] = engine.NewFloat(0)
		default:
			row[1] = engine.NewFloat(float64(rng.Intn(16)-8) * 0.25)
		}
	}
	if !null() {
		row[2] = engine.NewBool(rng.Intn(2) == 0)
	}
	if !null() {
		row[3] = engine.NewString(edgeStrs[rng.Intn(len(edgeStrs))])
	}
	if !null() {
		row[4] = engine.NewTimeUnix(int64(rng.Intn(4)) * (1<<53 + 1))
	}
	return row
}

// EdgeRows draws n rows of EdgeRow.
func EdgeRows(rng *rand.Rand, n int) [][]engine.Value {
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = EdgeRow(rng)
	}
	return rows
}

// BoundaryBatchSize draws an append batch size biased to land exactly
// on, one under, or one over the table's next segment boundary —
// where every off-by-one in the seal and suffix plumbing would live — and
// otherwise a small random size.
func BoundaryBatchSize(rng *rand.Rand, t *engine.Table) int {
	segRows := t.SegRows()
	toBoundary := segRows - t.NumRows()%segRows // rows until the next seal
	switch rng.Intn(6) {
	case 0:
		return toBoundary // lands exactly on the boundary
	case 1:
		if toBoundary > 1 {
			return toBoundary - 1 // one under
		}
		return 1
	case 2:
		return toBoundary + 1 // one over
	case 3:
		return toBoundary + segRows // straddles two boundaries
	default:
		return 1 + rng.Intn(2*segRows)
	}
}

// RetainStep applies a randomized row-bound retention policy to the
// newest version, returning it (possibly unchanged) plus the stream
// rows dropped. Harnesses interleave it with append batches to check
// that carried state is rebuilt across every moved base.
func RetainStep(rng *rand.Rand, t *engine.Table) (*engine.Table, int) {
	keep := t.SegRows() * (1 + rng.Intn(4))
	nt, stats, err := t.RetainTail(engine.RetentionPolicy{MaxRows: keep})
	if err != nil {
		panic(err)
	}
	return nt, stats.DroppedRows
}
