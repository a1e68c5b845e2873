package engine

import "fmt"

// Batch is a run of rows in a schema, held as columns: the one shape
// every append takes into a table — decoded from an /api/append body,
// replayed from the write-ahead log, filled by a generator or a CSV
// load, or converted from boxed rows — and the one rows leave a table in
// (Table.Batch), which is what a durability layer logs. Per column it
// holds NULL words and the cells in the column's own representation:
// float64s for a float column (NaN at NULL), exact int64s for an
// int-like one (int, time, bool; 0 at NULL), strings for a string one
// ("" at NULL). A batch is typed by construction, so appending it
// checks nothing per cell.
type Batch struct {
	schema Schema
	cols   []batchCol
}

type batchCol struct {
	typ  Type
	n    int
	null []uint64
	f    []float64
	i    []int64
	s    []string
}

// NewBatch returns an empty batch in schema with room for rows rows.
func NewBatch(schema Schema, rows int) *Batch {
	b := &Batch{schema: schema, cols: make([]batchCol, len(schema))}
	w := (rows + 63) / 64
	null := make([]uint64, w*len(schema))
	for c, col := range schema {
		bc := &b.cols[c]
		bc.typ, bc.null = col.Type, null[c*w:c*w:(c+1)*w]
		switch col.Type {
		case TFloat:
			bc.f = make([]float64, 0, rows)
		case TString:
			bc.s = make([]string, 0, rows)
		default:
			bc.i = make([]int64, 0, rows)
		}
	}
	return b
}

// BatchOf converts boxed rows into a batch, type-checking every cell as
// an append does: NULL fits every column, an int widens into a float
// column, an integral float narrows into an int column.
func BatchOf(schema Schema, rows [][]Value) (*Batch, error) {
	b := NewBatch(schema, len(rows))
	for r, row := range rows {
		if err := b.appendRow(row); err != nil {
			return nil, fmt.Errorf("row %d: %w", r, err)
		}
	}
	return b, nil
}

func (b *Batch) appendRow(row []Value) error {
	if len(row) != len(b.schema) {
		return fmt.Errorf("%d values, schema has %d columns", len(row), len(b.schema))
	}
	for c, v := range row {
		if err := b.AppendValue(c, v); err != nil {
			return err
		}
	}
	return nil
}

// Schema returns the batch's schema.
func (b *Batch) Schema() Schema { return b.schema }

// Len returns the number of rows: the first column's cell count.
func (b *Batch) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].n
}

// Fits reports whether the batch's columns are schema's types and hold
// rows [0, hi) — what an append checks before it writes anything.
func (b *Batch) Fits(schema Schema, hi int) error {
	if len(b.cols) != len(schema) {
		return fmt.Errorf("batch has %d columns, schema has %d", len(b.cols), len(schema))
	}
	for c, bc := range b.cols {
		if bc.typ != schema[c].Type || bc.n < hi {
			return fmt.Errorf("batch column %d is not a %s column of %d rows", c, schema[c].Type, hi)
		}
	}
	return nil
}

// next reserves the column's next cell, growing its NULL words.
func (bc *batchCol) next() int {
	if bc.n&63 == 0 {
		bc.null = append(bc.null, 0)
	}
	bc.n++
	return bc.n - 1
}

func (bc *batchCol) isNull(r int) bool { return bc.null[r>>6]&(1<<(uint(r)&63)) != 0 }

// AppendNull appends a NULL cell to column c.
func (b *Batch) AppendNull(c int) {
	bc := &b.cols[c]
	r := bc.next()
	bc.null[r>>6] |= 1 << (uint(r) & 63)
	switch bc.typ {
	case TFloat:
		bc.f = append(bc.f, nan)
	case TString:
		bc.s = append(bc.s, "")
	default:
		bc.i = append(bc.i, 0)
	}
}

// AppendFloat appends f to float column c.
func (b *Batch) AppendFloat(c int, f float64) {
	bc := &b.cols[c]
	bc.next()
	bc.f = append(bc.f, f)
}

// AppendInt appends i to int-like column c (int, time, or bool as 0/1).
func (b *Batch) AppendInt(c int, i int64) {
	bc := &b.cols[c]
	bc.next()
	bc.i = append(bc.i, i)
}

func (b *Batch) appendString(c int, s string) {
	bc := &b.cols[c]
	bc.next()
	bc.s = append(bc.s, s)
}

// AppendValue appends v to column c when it is storable there: NULL in
// any column, a value of the column's type, an int widened into a float
// column, an integral float narrowed into an int column.
func (b *Batch) AppendValue(c int, v Value) error {
	switch typ := b.cols[c].typ; {
	case v.T == TNull:
		b.AppendNull(c)
	case v.T == typ && typ == TString:
		b.appendString(c, v.S)
	case v.T == typ && typ == TFloat:
		b.AppendFloat(c, v.F)
	case v.T == typ:
		b.AppendInt(c, v.I)
	case v.T == TInt && typ == TFloat:
		b.AppendFloat(c, float64(v.I))
	case v.T == TFloat && typ == TInt && v.F == float64(int64(v.F)):
		b.AppendInt(c, int64(v.F))
	default:
		return fmt.Errorf("column %s is %s, got %s", b.schema[c].Name, typ, v.T)
	}
	return nil
}

// Col returns column c: its NULL words and the cells of its
// representation (the other two slices are nil). Read-only.
func (b *Batch) Col(c int) (null []uint64, f []float64, i []int64, s []string) {
	bc := &b.cols[c]
	return bc.null, bc.f, bc.i, bc.s
}

// append adds cells [lo, hi) of batch column bc as the chunk's next
// cells — the one place typed storage is written, the inverse of cell.
// A string interns through ds, so codes follow stream order; Ints starts
// at the first int-like cell whose float64 rounds, back-filled exactly
// from Vals. The caller has reserved the room (grow), so no append here
// reallocates a value array.
func (ch *Chunk) append(ds *dictState, bc *batchCol, lo, hi int) {
	if bc.typ == TString {
		for r := lo; r < hi; r++ {
			code := int32(-1)
			if !bc.isNull(r) {
				code = ds.code(bc.s[r])
			}
			ch.Codes = append(ch.Codes, code)
		}
		return
	}
	off := len(ch.Vals)
	for len(ch.Null) < (off+hi-lo+63)>>6 {
		ch.Null = append(ch.Null, 0)
	}
	for r := lo; r < hi; r++ {
		if bc.isNull(r) {
			ch.Null[(off+r-lo)>>6] |= 1 << (uint(off+r-lo) & 63)
		}
	}
	if bc.typ == TFloat {
		ch.Vals = append(ch.Vals, bc.f[lo:hi]...)
		return
	}
	for r, i := range bc.i[lo:hi] {
		f := float64(i)
		switch {
		case bc.isNull(lo + r):
			f = nan
		case ch.Ints == nil && !(-exactInt < f && f < exactInt):
			ch.Ints = make([]int64, off, cap(ch.Vals))
			for j, fj := range ch.Vals[:off] {
				if fj == fj { // NaN only at NULL, which stays 0
					ch.Ints[j] = int64(fj)
				}
			}
		}
		ch.Vals = append(ch.Vals, f)
	}
	if ch.Ints != nil {
		ch.Ints = append(ch.Ints, bc.i[lo:hi]...)
	}
}

// appendLocked writes batch rows [lo, hi) into the tail's chunks a
// column at a time, sealing whenever the tail is full. Caller holds
// fam.mu and has verified t is the newest version, owning its tail
// (forkTail).
func (t *Table) appendLocked(b *Batch, lo, hi int) {
	for lo < hi {
		room := (len(t.sealed)+1)<<t.bits - t.nrows
		if room == 0 {
			t.sealTailLocked()
			room = 1 << t.bits
		}
		n := min(hi-lo, room)
		t.grow(n)
		for c := range t.tail.chunks {
			t.tail.chunks[c].append(t.fam.dict[c], &b.cols[c], lo, lo+n)
		}
		t.nrows += n
		lo += n
	}
	t.captureDictsLocked()
	t.fam.hw = t.base + t.nrows
}

// Batch returns rows [lo, hi) of the version as a batch: the one way
// rows leave a table in bulk — what a durability layer logs when it
// rewrites its WAL down to the tail, or what a copy appends elsewhere.
// It reads each column a segment at a time through the ColReader a scan
// uses, so a faultable segment's cells come back bit for bit, int-like
// cells past 2^53 included, and no cell is boxed.
func (t *Table) Batch(lo, hi int) *Batch {
	b := NewBatch(t.schema, hi-lo)
	var r ColReader
	defer r.Close()
	for c := range t.schema {
		r.Close()
		r.open(t, c)
		r.appendTo(b, c, lo, hi)
	}
	return b
}
