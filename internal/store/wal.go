package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
)

// Write-ahead log for the growable tail. Sealed segments are durable
// as whole files; every row NOT yet covered by a durable segment file
// lives in wal.log, one length-prefixed CRC'd record per appended
// batch:
//
//	magic "DWWAL01\n"
//	record: u32 bodyLen | body | u32 crc(body)
//	  body: u64 startRow (stream row id of the record's first row),
//	  u32 nrows, then per row per column: u8 tag (0 = NULL, 1 = value)
//	  followed for non-NULL cells by the fixed 8-byte payload
//	  (int64 / IEEE float bits) or, for strings, u32 len + bytes
//	  inline. The WAL deliberately does NOT use the dictionary: a WAL
//	  record must be replayable even when the dict file lost its
//	  unsynced tail in the same crash.
//
// Records are encoded from the engine.Batch the append publishes — typed
// by construction, so replay into a batch reproduces the exact cells
// the engine acknowledged. Recovery parses records until the first one
// that is short, misframed, or fails its CRC — a torn final record is
// not corruption, it is the crash point — and truncates the file there.
//
// After a seal makes rows durable in a segment file, the WAL is
// REWRITTEN (write-temp → fsync → rename) to a single record holding
// only the current tail, so it stays bounded by one segment of rows.
// The rewrite happens strictly after the segment rename + dir fsync;
// a crash between the two leaves rows covered twice (segment file AND
// wal), which recovery resolves in the segment file's favor.

// walLog is the decoded WAL: rows [0, n) of rows are stream rows
// [start, start+n), every valid record's in order (decodeWAL guarantees
// the records are contiguous).
type walLog struct {
	start, n int
	rows     *engine.Batch
}

// window returns the batch rows covering stream ids [lo, hi), clamped to
// the rows the log holds.
func (w walLog) window(lo, hi int) (int, int) {
	lo, hi = max(lo-w.start, 0), min(hi-w.start, w.n)
	return lo, max(lo, hi)
}

// encodeWALRecord frames one acknowledged batch.
func encodeWALRecord(startRow int, b *engine.Batch) []byte {
	schema := b.Schema()
	// Room for the frame and a tag + 8-byte payload a cell; strings grow it.
	out := make([]byte, 4, 4+12+b.Len()*9*len(schema)+4)
	out = appendU64(out, uint64(startRow))
	out = appendU32(out, uint32(b.Len()))
	for r := 0; r < b.Len(); r++ {
		for c, col := range schema {
			null, f, i, s := b.Col(c)
			switch {
			case null[r>>6]&(1<<(uint(r)&63)) != 0:
				out = append(out, 0)
			case col.Type == engine.TString:
				out = appendU32(append(out, 1), uint32(len(s[r])))
				out = append(out, s[r]...)
			case col.Type == engine.TFloat:
				out = appendU64(append(out, 1), math.Float64bits(f[r]))
			default:
				out = appendU64(append(out, 1), uint64(i[r]))
			}
		}
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	return appendU32(out, crc(out[4:]))
}

// decodeWAL parses a wal.log image. It returns the valid record prefix
// and goodOff, the byte offset just past the last valid record — the
// size recovery truncates the file to. A missing or mangled leading
// magic yields no rows and goodOff 0 (the file is rewritten from
// scratch). Misordered startRows stop the parse at the offending
// record: records are appended in stream order, so an out-of-order id
// means the framing drifted even though a CRC happened to pass.
func decodeWAL(data []byte, schema engine.Schema) (wal walLog, goodOff int) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return walLog{}, 0
	}
	wal.rows = engine.NewBatch(schema, 0)
	off := len(walMagic)
	for off < len(data) {
		r := &byteReader{b: data, off: off}
		bodyLen := r.u32()
		body := r.take(int(bodyLen))
		bodyCRC := r.u32()
		if !r.ok() || crc(body) != bodyCRC {
			break
		}
		start, err := decodeWALBody(body, wal.rows)
		if err != nil || (off > len(walMagic) && start != wal.start+wal.n) {
			break // a partly decoded record's cells lie past n, unread
		}
		if off == len(walMagic) {
			wal.start = start
		}
		wal.n = wal.rows.Len()
		off = r.off
	}
	return wal, off
}

// decodeWALBody appends one record's rows to b, returning its startRow.
func decodeWALBody(body []byte, b *engine.Batch) (int, error) {
	r := &byteReader{b: body}
	start := r.u64()
	nrows := r.u32()
	if !r.ok() || nrows > uint32(len(body)) { // each row costs ≥ 1 byte a column
		return 0, fmt.Errorf("implausible row count %d", nrows)
	}
	for i := uint32(0); i < nrows; i++ {
		for c, col := range b.Schema() {
			switch tag := r.u8(); {
			case tag == 0:
				b.AppendNull(c)
			case tag != 1:
				return 0, fmt.Errorf("bad cell tag %d", tag)
			case col.Type == engine.TString:
				s := r.take(int(r.u32()))
				if !r.ok() {
					return 0, fmt.Errorf("truncated string cell")
				}
				_ = b.AppendValue(c, engine.NewString(string(s)))
			case col.Type == engine.TFloat:
				b.AppendFloat(c, math.Float64frombits(r.u64()))
			default:
				b.AppendInt(c, int64(r.u64()))
			}
		}
		if !r.ok() {
			return 0, fmt.Errorf("truncated record body")
		}
	}
	if r.remaining() != 0 {
		return 0, fmt.Errorf("%d trailing bytes in record", r.remaining())
	}
	return int(start), nil
}
