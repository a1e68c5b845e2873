package engine

import (
	"math"
	"slices"
)

// This file defines the fixed-size row segment the storage spine is
// built from. A table version is an ordered list of SEALED segments
// (each exactly SegRows rows, immutable) plus a TAIL of the newest
// < SegRows rows, and both are the same thing: per column one typed
// chunk (Chunk) — float values + NULL words, dictionary codes, and
// exact int64 cells only where a float64 has rounded — at most 8 bytes
// a row. Chunk.append (batch.go) writes a Batch column into it and
// Chunk.cell boxes one cell back out; a boxed Value exists only as the
// one cell a caller handed in or asked for.
//
// Appends only ever touch the tail. Copy-on-write versions share all
// sealed segments by pointer and the tail's value and code arrays by
// aliasing: a batch lands past every published version's length, so no
// published memory is ever written. The one exception would be a NULL
// bit set inside a published version's last word, so each version owns
// its tail NULL words (forkTail: a ≤ SegRows/64-word copy per numeric
// column per version). A full tail is handed to the sealed list as it is
// and a fresh one starts; no append copies more than one tail chunk.
//
// Segments are also the unit of RETENTION (retain.go): dropping the
// oldest k sealed segments produces a new version whose row ids are
// rebased down by k*SegRows. Segment sizes are powers of two and at
// least 64 rows, so a segment boundary is always a bitset word
// boundary — dropped head rows correspond to whole []uint64 words in
// every clause mask, which is what lets the predicate index rebase by
// dropping head chunks instead of rebuilding.
//
// A sealed segment either HOLDS its chunks (sealed in this process, or
// attached resident by recovery) or PINS them on demand through a
// ChunkLoader (fault.go): two holders of one format. Held chunks are
// dropped together with the segment when retention lets go of it.

const (
	// DefaultSegmentBits sizes segments at 64Ki rows: large enough that
	// per-segment bookkeeping is negligible, small enough that a
	// retention pass reclaims memory in useful steps.
	DefaultSegmentBits = 16
	// MinSegmentBits is the smallest legal segment size: 64 rows = one
	// bitset word, the invariant that keeps segment boundaries
	// word-aligned in every bitmap. Tests force this size so short
	// append chains straddle many segment boundaries.
	MinSegmentBits = 6
)

// Chunk is one column of one segment, sealed or tail. Which fields are
// set follows the column's type; a published version's cells are never
// rewritten.
type Chunk struct {
	// Vals and Null are a numeric column's float64 coercion (NaN at
	// NULL) and NULL bitmap words (one per 64 cells).
	Vals []float64
	Null []uint64
	// Ints holds an int-like column's exact cells (0 at NULL), present
	// only when RoundedInts says some cell's float64 has rounded.
	Ints []int64
	// Codes are a string column's dictionary codes (-1 = NULL).
	Codes []int32
}

// Bytes is the memory the chunk's slices occupy.
func (ch *Chunk) Bytes() int {
	return 8*(len(ch.Vals)+len(ch.Null)+len(ch.Ints)) + 4*len(ch.Codes)
}

var nan = math.NaN()

// exactInt bounds the int64 cells a float64 carries exactly: below it
// int64(float64(v)) == v, at or past it the float chunk has rounded.
const exactInt = 1 << 53

// RoundedInts reports whether some non-NULL cell of an int-like
// column's float chunk lies at or past ±2^53 — the one case in which a
// held chunk needs Ints beside Vals.
func RoundedInts(vals []float64, null []uint64) bool {
	for i, f := range vals {
		if !(-exactInt < f && f < exactInt) && null[i>>6]&(1<<(uint(i)&63)) == 0 {
			return true
		}
	}
	return false
}

// cell boxes the cell at offset off of a column of type typ, bit for bit
// the Value that was appended: a float cell is the chunk's float64
// itself (NaN payloads and -0.0 included), an int-like cell converts
// back exactly while |v| < 2^53 and reads Ints past that, a string cell
// indexes dict. rounded reports a cell that needs Ints from a chunk
// that has none — a faultable segment's cursor then pins the exact
// chunk and asks again; a held chunk never does.
func (ch *Chunk) cell(typ Type, dict []string, off int) (v Value, rounded bool) {
	if typ == TString {
		if code := ch.Codes[off]; code >= 0 {
			return NewString(dict[code]), false
		}
		return Null, false
	}
	if ch.Null[off>>6]&(1<<(uint(off)&63)) != 0 {
		return Null, false
	}
	f := ch.Vals[off]
	switch {
	case typ == TFloat:
		return NewFloat(f), false
	case -exactInt < f && f < exactInt:
		return Value{T: typ, I: int64(f)}, false
	case ch.Ints == nil:
		return Null, true
	}
	return Value{T: typ, I: ch.Ints[off]}, false
}

// grow moves the chunk's cells into arrays of capacity n; the old
// arrays stay with the versions that alias them.
func (ch *Chunk) grow(typ Type, n int) {
	if typ == TString {
		ch.Codes = append(make([]int32, 0, n), ch.Codes...)
		return
	}
	ch.Vals = append(make([]float64, 0, n), ch.Vals...)
	if ch.Ints != nil {
		ch.Ints = append(make([]int64, 0, n), ch.Ints...)
	}
}

// segment is one run of rows: sealed (exactly segRows, immutable) or a
// version's tail. It holds its chunks (chunks != nil) or pins them
// through loader (chunks == nil, see fault.go) — never both, and a
// faultable segment never caches what it pins: the loader's pool is the
// only cache, so evicting there actually frees the memory.
type segment struct {
	chunks []Chunk
	// dicts[c] is string column c's family dictionary as of the seal,
	// the attach or — the tail's — the version's last row: an immutable
	// prefix covering every code, so boxing a string cell takes no lock.
	dicts [][]string
	// loader/streamIdx/zones are the out-of-core state: loader faults
	// chunks by (streamIdx, col); zones, when present, holds one
	// per-column zone map for predicate pruning.
	loader    ChunkLoader
	streamIdx int
	zones     []ZoneInfo
}

// SegmentBits returns log2 of the table family's segment row count.
func (t *Table) SegmentBits() uint { return t.bits }

// SegRows returns the family's rows-per-segment (a power of two ≥ 64).
func (t *Table) SegRows() int { return 1 << t.bits }

// Base returns the number of stream rows dropped from the head of this
// version by retention — always a multiple of SegRows. Local row id r
// of this version is stream row r + Base(). Results, scorers and
// rankings carried from a version at another base are rebuilt, not
// translated.
func (t *Table) Base() int { return t.base }

// Version returns this version's stream high-water mark: Base() +
// NumRows(), the total number of rows ever appended up to this
// version. It is monotone under appends and unchanged by retention
// (which moves Base, not the stream end); two versions of one family
// with equal Version are distinguished by Base.
func (t *Table) Version() int { return t.base + t.nrows }

// NumSegments reports the version's sealed segment count and whether a
// partial tail is present — the retained-memory figure retention and
// the server's stats endpoint report.
func (t *Table) NumSegments() (sealed int, tailRows int) {
	return len(t.sealed), t.nrows - len(t.sealed)<<t.bits
}

// SegmentChunks exposes sealed segment k's chunks and the per-column
// dictionaries their codes index — the spill hook a durability layer
// (internal/store) encodes segment files from. Both are immutable; k
// indexes this version's sealed segments (stream segment index =
// Base()/SegRows + k). A faultable segment (one the store itself
// attached, so one it already holds on disk) returns nil chunks.
func (t *Table) SegmentChunks(k int) ([]Chunk, [][]string) {
	return t.sealed[k].chunks, t.sealed[k].dicts
}

// segAt returns segment k of this version's window: sealed[k], or the
// tail right past the sealed list.
func (t *Table) segAt(k int) *segment {
	if k == len(t.sealed) {
		return &t.tail
	}
	return t.sealed[k]
}

// forkTail returns the tail of a version about to succeed t: its own
// chunk and dictionary headers over the shared arrays, and its own copy
// of the NULL words — the one piece of the tail an append writes inside
// a published length.
func (t *Table) forkTail() segment {
	s := segment{chunks: slices.Clone(t.tail.chunks), dicts: slices.Clone(t.tail.dicts)}
	for c := range s.chunks {
		s.chunks[c].Null = slices.Clone(s.chunks[c].Null)
	}
	return s
}

// captureDictsLocked bounds the tail's dictionaries at the family's
// current ones: every string appended so far, in stream order.
func (t *Table) captureDictsLocked() {
	for c, ds := range t.fam.dict {
		if ds != nil {
			t.tail.dicts[c] = ds.values[:len(ds.values):len(ds.values)]
		}
	}
}

// sealTailLocked hands the full tail to the sealed list as it stands —
// grow clamps capacities at the segment size, so the chunks are exact —
// and starts a fresh one. Caller holds fam.mu; nt is the version being
// grown.
func (nt *Table) sealTailLocked() {
	nt.captureDictsLocked()
	full := nt.tail
	nt.sealed = append(nt.sealed, &full)
	nt.tail = segment{chunks: make([]Chunk, len(nt.schema)), dicts: slices.Clone(full.dicts)}
}
