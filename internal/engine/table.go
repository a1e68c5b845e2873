package engine

import (
	"errors"
	"fmt"
)

// errStaleAppend reports a mutation against a superseded table snapshot:
// a newer version of the family has already been published (by an
// append or a retention pass). Callers that lost a publish race
// (engine.DB.Append, DB.Retain) match on it to retry against the
// newest version.
var errStaleAppend = errors.New("append to stale snapshot")

// Table is an append-only, in-memory columnar relation stored as
// fixed-size row segments (see segment.go): sealed segments of exactly
// SegRows rows plus a growable tail, all of them typed chunks. Row
// identifiers are stable under appends: row i is always the i'th
// appended row. Stable identifiers are load-bearing for the provenance
// machinery — lineage sets and ground-truth labels are both expressed
// as row ids into the source table. Retention (retain.go) is the one operation that moves ids:
// dropping k head segments rebases every surviving id down by
// k*SegRows, recorded in Base().
//
// A version never changes once published: AppendCols is the only way
// rows enter a family, and it (like RetainTail) returns a new version.
// Rows leave in bulk through Batch.
type Table struct {
	name   string
	schema Schema
	// sealed are the full segments; sealed[k] covers local rows
	// [k<<bits, (k+1)<<bits). tail holds the remaining newest rows and
	// the dictionaries as of the last one: headers and NULL words are
	// per-version, the value and code arrays are shared with newer
	// versions, which only ever write past this version's nrows.
	sealed []*segment
	tail   segment
	nrows  int
	// base counts stream rows dropped by retention before sealed[0];
	// always a multiple of SegRows.
	base int
	// bits/mask cache the family segment geometry (immutable).
	bits uint
	mask int
	// pub is this version's publication stamp; mutations require it to
	// match the family's counter (linear history).
	pub uint64
	// fam is the state all versions share (family.go), behind a pointer
	// so shallow table copies share it.
	fam *family
}

// NewTable creates an empty table with the given name and schema and
// the default segment size. The schema must validate.
func NewTable(name string, schema Schema) (*Table, error) {
	return NewTableSeg(name, schema, DefaultSegmentBits)
}

// NewTableSeg is NewTable with an explicit segment size of 1<<segBits
// rows. segBits must be at least MinSegmentBits (64 rows — one bitset
// word), the invariant that keeps segment boundaries word-aligned in
// every mask and lineage bitmap. Tests force small sizes so append
// chains straddle segment boundaries constantly.
func NewTableSeg(name string, schema Schema, segBits uint) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if segBits < MinSegmentBits {
		return nil, fmt.Errorf("engine: segment bits %d below minimum %d (segments must cover whole bitset words)", segBits, MinSegmentBits)
	}
	t := &Table{
		name:   name,
		schema: schema.Clone(),
		tail:   segment{chunks: make([]Chunk, len(schema)), dicts: make([][]string, len(schema))},
		bits:   segBits,
		mask:   1<<segBits - 1,
	}
	t.fam = newFamily(t.schema)
	return t, nil
}

// NewTableSegBase is NewTableSeg for restart recovery: the empty table
// starts with its retention base already advanced to base stream rows,
// as if a retention pass had dropped base/SegRows head segments. Row
// ids appended to it continue the original stream's numbering (local
// row r is stream row r+base), so carried provenance and the
// Base()/Version() contract survive a stop/start cycle. base must be a
// non-negative multiple of the segment size.
func NewTableSegBase(name string, schema Schema, segBits uint, base int) (*Table, error) {
	t, err := NewTableSeg(name, schema, segBits)
	if err != nil {
		return nil, err
	}
	if base < 0 || base&(1<<segBits-1) != 0 {
		return nil, fmt.Errorf("engine: recovery base %d is not a multiple of the segment size %d", base, 1<<segBits)
	}
	t.base = base
	t.fam.hw = base
	return t, nil
}

// MustNewTable is NewTable for static declarations; it panics on error.
func MustNewTable(name string, schema Schema) *Table {
	t, err := NewTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.schema) }

// grow reserves tail capacity for n additional rows (capped at the
// segment size — sealed segments are allocated as they fill). An
// outgrown tail at least doubles, so small appends stay linear.
func (t *Table) grow(n int) {
	segRows := 1 << t.bits
	need := min(t.nrows-len(t.sealed)<<t.bits+n, segRows)
	for c := range t.tail.chunks {
		ch := &t.tail.chunks[c]
		if have := cap(ch.Vals) + cap(ch.Codes); have < need { // a chunk has one or the other
			ch.grow(t.schema[c].Type, min(max(need, 2*have), segRows))
		}
	}
}

// forkLocked returns the next version of t, still equal to it: sealed
// segments shared, the tail forked, the publication stamp bumped. Caller
// holds fam.mu and has verified t is the newest version.
func (t *Table) forkLocked() *Table {
	t.fam.pub++
	return &Table{
		name: t.name, schema: t.schema,
		sealed: t.sealed, tail: t.forkTail(),
		nrows: t.nrows, base: t.base, bits: t.bits, mask: t.mask,
		pub: t.fam.pub, fam: t.fam,
	}
}

// AppendCols appends rows [lo, hi) of a batch copy-on-write: it returns
// a NEW table version holding them, leaving the receiver — and every
// view, mask, or query result derived from it — untouched and valid.
// The two versions share every sealed segment by pointer and the tail's
// value arrays by aliasing (the rows land past the receiver's row
// count, which its readers never index), so appends touch only the tail
// segment: worst case one tail reallocation bounded by the segment size.
//
// Appends are linear: only the newest version of a family may be
// appended to. A batch against a superseded snapshot returns an error,
// which is what makes concurrent ingest safe — two racing appenders
// serialize on the family lock and the loser gets the stale error
// instead of silently clobbering published rows. A batch is typed by
// construction, so no version ever exposes a half-appended one.
func (t *Table) AppendCols(b *Batch, lo, hi int) (*Table, error) {
	if err := b.Fits(t.schema, hi); err != nil {
		return nil, fmt.Errorf("engine: table %s: %w", t.name, err)
	}
	fam := t.fam
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if t.pub != fam.pub {
		return nil, fmt.Errorf("engine: table %s: %w (%d rows, family has %d)", t.name, errStaleAppend, t.nrows, fam.hw-t.base)
	}
	nt := t.forkLocked()
	nt.appendLocked(b, lo, hi)
	return nt, nil
}

// AppendBatch is AppendCols over boxed rows (BatchOf): the whole batch
// is type-checked before anything is written.
func (t *Table) AppendBatch(rows [][]Value) (*Table, error) {
	b, err := BatchOf(t.schema, rows)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %w", t.name, err)
	}
	return t.AppendCols(b, 0, b.Len())
}

// SameFamily reports whether o is a version of the same underlying
// table (they share storage and the family state — the relationship
// AppendCols, RetainTail and Rename establish).
func (t *Table) SameFamily(o *Table) bool {
	return t != nil && o != nil && t.fam == o.fam
}

// Value returns the value at (row, col). It panics when out of range,
// like a slice index. The cell is boxed out of its column's typed
// chunk: the one the segment holds, or a faultable segment's under a
// transient pin — correct everywhere, but per cell; row loops should hold
// a RowReader, typed loops a ColReader.
func (t *Table) Value(row, col int) Value {
	s := t.segAt(row >> t.bits)
	if s.chunks == nil {
		return t.faultedCell(row, col)
	}
	v, _ := s.chunks[col].cell(t.schema[col].Type, s.dicts[col], row&t.mask)
	return v
}

// Row materializes row i into a fresh slice.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.schema))
	t.RowInto(i, out)
	return out
}

// RowInto copies row i into dst, which must have len == NumCols. It
// avoids per-row allocation in scan loops.
func (t *Table) RowInto(i int, dst []Value) {
	for c := range dst {
		dst[c] = t.Value(i, c)
	}
}

// Select materializes a new table containing the given rows (in order),
// preserving the schema and segment size. Useful for building candidate
// datasets. The new table is a fresh family with ids rebased to 0.
func (t *Table) Select(rows []int) *Table {
	out, err := NewTableSeg(t.name, t.schema, t.bits)
	if err != nil {
		panic(err)
	}
	b := NewBatch(t.schema, len(rows))
	buf := make([]Value, len(t.schema))
	rr := t.NewRowReader()
	defer rr.Close()
	for _, r := range rows {
		rr.RowInto(r, buf)
		_ = b.appendRow(buf) // a stored row always fits its schema
	}
	out, err = out.AppendCols(b, 0, b.Len())
	if err != nil {
		panic(err)
	}
	return out
}

// Rename returns the table under a new name, sharing storage.
func (t *Table) Rename(name string) *Table {
	out := *t
	out.name = name
	return &out
}

// String renders a short description, not the rows.
func (t *Table) String() string {
	return fmt.Sprintf("%s%s [%d rows]", t.name, t.schema, t.nrows)
}
