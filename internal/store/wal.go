package store

import (
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
// Records hold COERCED rows (engine.Table.CoerceBatch runs before
// logging); coercion is deterministic, so replay reproduces the exact
// cells the engine acknowledged. Recovery parses records until the
// first one that is short, misframed, or fails its CRC — a torn final
// record is not corruption, it is the crash point — and truncates the
// file there.
//
// After a seal makes rows durable in a segment file, the WAL is
// REWRITTEN (write-temp → fsync → rename) to a single record holding
// only the current tail, so it stays bounded by one segment of rows.
// The rewrite happens strictly after the segment rename + dir fsync;
// a crash between the two leaves rows covered twice (segment file AND
// wal), which recovery resolves in the segment file's favor.

// walRecord is one decoded WAL record.
type walRecord struct {
	startRow int
	rows     [][]engine.Value
}

// encodeWALRecord frames one acknowledged batch.
func encodeWALRecord(schema engine.Schema, startRow int, rows [][]engine.Value) []byte {
	body := appendU64(nil, uint64(startRow))
	body = appendU32(body, uint32(len(rows)))
	for _, row := range rows {
		for c, col := range schema {
			v := row[c]
			if v.IsNull() {
				body = append(body, 0)
				continue
			}
			body = append(body, 1)
			if col.Type == engine.TString {
				body = appendU32(body, uint32(len(v.S)))
				body = append(body, v.S...)
			} else {
				body = appendU64(body, cellBits(v))
			}
		}
	}
	out := appendU32(nil, uint32(len(body)))
	out = append(out, body...)
	return appendU32(out, crc(body))
}

// decodeWAL parses a wal.log image. It returns the valid records in
// file order and goodOff, the byte offset just past the last valid
// record — the size recovery truncates the file to. A missing or
// mangled leading magic yields zero records and goodOff 0 (the file is
// rewritten from scratch). Misordered startRows stop the parse at the
// offending record: records are appended in stream order, so an
// out-of-order id means the framing drifted even though a CRC
// happened to pass.
func decodeWAL(data []byte, schema engine.Schema) (recs []walRecord, goodOff int) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0
	}
	off := len(walMagic)
	nextRow := -1
	for off < len(data) {
		r := &byteReader{b: data, off: off}
		bodyLen := r.u32()
		body := r.take(int(bodyLen))
		bodyCRC := r.u32()
		if !r.ok() || crc(body) != bodyCRC {
			return recs, off
		}
		rec, err := decodeWALBody(body, schema)
		if err != nil {
			return recs, off
		}
		if nextRow >= 0 && rec.startRow != nextRow {
			return recs, off
		}
		nextRow = rec.startRow + len(rec.rows)
		recs = append(recs, rec)
		off = r.off
	}
	return recs, off
}

func decodeWALBody(body []byte, schema engine.Schema) (walRecord, error) {
	r := &byteReader{b: body}
	start := r.u64()
	nrows := r.u32()
	if !r.ok() || nrows > uint32(len(body)) { // each row costs ≥1 byte/col ≥ 1 byte
		return walRecord{}, fmt.Errorf("implausible row count %d", nrows)
	}
	rows := make([][]engine.Value, 0, nrows)
	for i := uint32(0); i < nrows; i++ {
		row := make([]engine.Value, len(schema))
		for c, col := range schema {
			switch tag := r.u8(); tag {
			case 0:
				// NULL: zero Value.
			case 1:
				if col.Type == engine.TString {
					slen := r.u32()
					s := r.take(int(slen))
					if !r.ok() {
						return walRecord{}, fmt.Errorf("truncated string cell")
					}
					row[c] = engine.Value{T: engine.TString, S: string(s)}
				} else if bits := r.u64(); col.Type == engine.TFloat {
					row[c] = engine.NewFloat(math.Float64frombits(bits))
				} else {
					row[c] = engine.Value{T: col.Type, I: int64(bits)}
				}
			default:
				return walRecord{}, fmt.Errorf("bad cell tag %d", tag)
			}
		}
		if !r.ok() {
			return walRecord{}, fmt.Errorf("truncated record body")
		}
		rows = append(rows, row)
	}
	if r.remaining() != 0 {
		return walRecord{}, fmt.Errorf("%d trailing bytes in record", r.remaining())
	}
	return walRecord{startRow: int(start), rows: rows}, nil
}
