package engine

// This file defines the fixed-size row segment that the storage spine
// is built from. A table version is an ordered list of SEALED segments
// (each exactly SegRows rows, immutable once sealed) plus a growable
// TAIL holding the newest < SegRows rows. Appends only ever touch the
// tail: a batch fills the tail arrays in place (writes land past every
// published version's row count, so older snapshots never observe
// them), and when the tail reaches SegRows rows it is sealed — typed
// into a segment shared by reference — and a fresh tail starts.
// Copy-on-write versions therefore share all sealed segments and the
// tail arrays; the per-version state is just the segment pointer list,
// the tail slice headers, and the row count. No append ever copies a
// whole column again: the worst-case copy is one tail reallocation,
// bounded by the segment size.
//
// Segments are also the unit of RETENTION (retain.go): dropping the
// oldest k sealed segments produces a new version whose row ids are
// rebased down by k*SegRows. Segment sizes are powers of two and at
// least 64 rows, so a segment boundary is always a bitset word
// boundary — dropped head rows correspond to whole []uint64 words in
// every lineage bitset and clause mask, which is what lets carried
// incremental state rebase by word-shift instead of rebuilding.
//
// A sealed segment has ONE representation: per column, a typed chunk
// (Chunk) — float values + NULL words, dictionary codes, and exact
// int64 cells only where a float64 has rounded — at most 8 bytes a
// row. Sealing builds every column's chunk from the full tail and drops
// the boxed arrays, so the tail (bounded by one segment) is the only
// boxed storage in a table. A segment either HOLDS its chunks (sealed
// in this process, or attached resident by recovery) or PINS them on
// demand through a ChunkLoader (fault.go): two holders of one format.
// Chunks a segment holds are dropped together with the segment when
// retention lets go of it. A boxed Value of a sealed row exists only as
// the single cell a caller asked for (Chunk.cell).

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

// Chunk is one column of one sealed segment. Which fields are set
// follows the column's type; all slices are immutable once the segment
// is published.
type Chunk struct {
	// Vals and Null are a numeric column's float64 coercion (NaN at
	// NULL) and NULL bitmap words (SegRows/64 of them).
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

// segment is one sealed run of exactly segRows rows, immutable once
// built. It holds its chunks (chunks != nil) or pins them through
// loader (chunks == nil, see fault.go) — never both, and a faultable
// segment never caches what it pins: the loader's pool is the only
// cache, so evicting there actually frees the memory.
type segment struct {
	chunks []Chunk
	// dicts[c] is string column c's family dictionary as of the seal or
	// attach: an immutable prefix covering every code of the segment, so
	// boxing a string cell takes no lock.
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
// of this version is stream row r + Base(); carried state from an
// older version rebases ids down by the base delta.
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

// sealTailLocked seals the current tail into a segment appended to
// nt.sealed and starts a fresh tail: every column's chunk is finished
// from wherever the tail's incremental decoders stand — strings interned
// in stream order — and the boxed arrays are let go (older versions'
// tail headers keep them alive for as long as those versions live).
// Caller holds views.mu and has verified the tail is exactly full. nt
// must be the newest version (the one being grown).
func (nt *Table) sealTailLocked() {
	vc := nt.views
	segRows := 1 << nt.bits
	tailStart := vc.epoch << nt.bits
	seg := &segment{chunks: make([]Chunk, len(nt.schema)), dicts: make([][]string, len(nt.schema))}
	for c, col := range nt.schema {
		boxed := nt.tail[c][:segRows]
		if col.Type == TString {
			ds := vc.dictFor(c)
			ds.extendTail(boxed, tailStart)
			seg.chunks[c].Codes = ds.tailCodes[:segRows:segRows]
			seg.dicts[c] = ds.values[:len(ds.values):len(ds.values)]
			ds.tailCodes = nil
			continue
		}
		tf := vc.tailFloatFor(c)
		tf.extend(boxed)
		ch := Chunk{Vals: tf.vals[:segRows:segRows], Null: tf.null}
		if col.Type != TFloat && RoundedInts(ch.Vals, ch.Null) {
			ch.Ints = make([]int64, segRows)
			for i, v := range boxed {
				ch.Ints[i] = v.I
			}
		}
		seg.chunks[c] = ch
	}
	vc.tailF = nil
	vc.epoch++
	nt.sealed = append(nt.sealed, seg)
	nt.tail = make([][]Value, len(nt.schema))
}

func segWordsOf(bits uint) int { return 1 << (bits - 6) }
