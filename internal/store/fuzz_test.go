package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// FuzzSegmentSection feeds raw bytes to decodeSection, the one decoder
// behind every read of a segment file's column data (once per fault):
// whatever the bytes, the column
// type, the chunk kind asked for and the dictionary high-water, it
// returns an error or a whole chunk — never a panic, never a dictionary
// code at or past the high-water, never a slice of the wrong length.
func FuzzSegmentSection(f *testing.F) {
	const segBits = engine.MinSegmentBits
	const segRows = 1 << segBits
	// A well-formed float section (row 3 NULL) and a code section (row 0
	// NULL, codes 0..4), then each asked for as the wrong kind.
	num := make([]byte, sectionBytes(engine.TFloat, segBits))
	num[0] = 1 << 3
	for i := 0; i < segRows; i++ {
		binary.LittleEndian.PutUint64(num[8+i*8:], math.Float64bits(float64(i)-0.5))
	}
	str := make([]byte, sectionBytes(engine.TString, segBits))
	str[0] = 1
	for i := 0; i < segRows; i++ {
		binary.LittleEndian.PutUint32(str[8+i*4:], uint32(i%5))
	}
	f.Add(num, uint8(engine.TFloat), uint8(chunkFloat), uint32(0))
	f.Add(num, uint8(engine.TInt), uint8(chunkInt), uint32(0))
	f.Add(str, uint8(engine.TString), uint8(chunkCodes), uint32(5))
	f.Add(str, uint8(engine.TString), uint8(chunkCodes), uint32(4)) // code 4 is out of range
	f.Add(str, uint8(engine.TString), uint8(chunkFloat), uint32(5))
	f.Add(num[:len(num)-1], uint8(engine.TTime), uint8(chunkFloat), uint32(0))

	f.Fuzz(func(t *testing.T, section []byte, typ, kind uint8, dictHW uint32) {
		ch, err := decodeSection(section, engine.Type(typ), segBits, chunkKind(kind), dictHW)
		if err != nil {
			if ch.Bytes() != 0 {
				t.Fatalf("error %v came with a chunk", err)
			}
			return
		}
		switch chunkKind(kind) {
		case chunkFloat:
			if len(ch.Vals) != segRows || len(ch.Null) != segRows/64 || ch.Codes != nil || ch.Ints != nil {
				t.Fatalf("float chunk of %d values, %d NULL words", len(ch.Vals), len(ch.Null))
			}
			for i, v := range ch.Vals {
				if ch.Null[i>>6]&(1<<(uint(i)&63)) != 0 && !math.IsNaN(v) {
					t.Fatalf("NULL row %d decoded as %v", i, v)
				}
			}
		case chunkCodes:
			if len(ch.Codes) != segRows || ch.Vals != nil || ch.Ints != nil {
				t.Fatalf("code chunk of %d codes", len(ch.Codes))
			}
			for i, code := range ch.Codes {
				if code < -1 || (code >= 0 && uint32(code) >= dictHW) {
					t.Fatalf("row %d: code %d served with a dictionary of %d", i, code, dictHW)
				}
			}
		case chunkInt:
			if len(ch.Ints) != segRows || ch.Vals != nil || ch.Codes != nil {
				t.Fatalf("exact chunk of %d cells", len(ch.Ints))
			}
		default:
			t.Fatalf("decoded a chunk of unknown kind %d", kind)
		}
	})
}

// walSchema covers every column type a WAL cell can carry.
var walSchema = engine.NewSchema("i", engine.TInt, "f", engine.TFloat, "b", engine.TBool, "t", engine.TTime, "s", engine.TString)

// walImage frames fuzzer bytes as a wal.log image: the magic, then each
// body of bodies — a u16 length followed by that many bytes, the last
// one clipped — as a record with a correct CRC, then tail unframed.
func walImage(bodies, tail []byte) []byte {
	img := []byte(walMagic)
	for len(bodies) >= 2 {
		n := min(int(binary.LittleEndian.Uint16(bodies)), len(bodies)-2)
		body := bodies[2 : 2+n]
		bodies = bodies[2+n:]
		img = appendU32(append(appendU32(img, uint32(len(body))), body...), crc(body))
	}
	return append(img, tail...)
}

// crcCovered returns the offset just past the last record of img whose
// CRC matches, walking the framing from the magic.
func crcCovered(img []byte) int {
	off := len(walMagic)
	for off+4 <= len(img) {
		n := int(binary.LittleEndian.Uint32(img[off:]))
		end := off + 4 + n + 4
		if end > len(img) || crc(img[off+4:off+4+n]) != binary.LittleEndian.Uint32(img[end-4:]) {
			break
		}
		off = end
	}
	return off
}

// batchPrefix copies rows [0, n) of b: a record that failed mid-body
// leaves cells past the log's row count in some columns.
func batchPrefix(b *engine.Batch, n int) *engine.Batch {
	out := engine.NewBatch(b.Schema(), n)
	for c, col := range b.Schema() {
		null, f, i, s := b.Col(c)
		for r := 0; r < n; r++ {
			switch {
			case null[r>>6]&(1<<(uint(r)&63)) != 0:
				out.AppendNull(c)
			case col.Type == engine.TString:
				_ = out.AppendValue(c, engine.NewString(s[r]))
			case col.Type == engine.TFloat:
				out.AppendFloat(c, f[r])
			default:
				out.AppendInt(c, i[r])
			}
		}
	}
	return out
}

// walCellsEqual reports whether rows [0, n) of a and b hold the same
// cells bit for bit: NULL words, float bits, exact ints and strings.
func walCellsEqual(a, b *engine.Batch, n int) bool {
	for c := range a.Schema() {
		an, af, ai, as := a.Col(c)
		bn, bf, bi, bs := b.Col(c)
		for r := 0; r < n; r++ {
			w, bit := r>>6, uint64(1)<<(uint(r)&63)
			switch {
			case an[w]&bit != bn[w]&bit:
				return false
			case af != nil && math.Float64bits(af[r]) != math.Float64bits(bf[r]):
				return false
			case ai != nil && ai[r] != bi[r]:
				return false
			case as != nil && as[r] != bs[r]:
				return false
			}
		}
	}
	return true
}

// FuzzReplayWAL feeds decodeWAL — the parser recovery replays wal.log
// through — records framed with correct CRCs around fuzzer bodies, then
// raw tail bytes. Whatever the bytes, it must not panic, must not
// report a valid prefix past the last byte a matching CRC covered, and
// the rows it returns must re-encode (encodeWALRecord) to a record that
// decodes to the same cells bit for bit.
func FuzzReplayWAL(f *testing.F) {
	rows := pinnedRows(0, 40)
	rows = append(rows,
		[]engine.Value{engine.NewInt(1<<53 + 1), engine.NewFloat(math.Float64frombits(0x7ff8000000000001)), engine.NewBool(true), engine.NewTimeUnix(-(1<<53 + 1)), engine.NewString("日本語 ✓")},
		[]engine.Value{engine.Null, engine.NewFloat(math.Copysign(0, -1)), engine.Null, engine.Null, engine.NewString("")},
	)
	batch := func(rows [][]engine.Value) *engine.Batch {
		b, err := engine.BatchOf(walSchema, rows)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	body := func(start int, rows [][]engine.Value) []byte {
		rec := encodeWALRecord(start, batch(rows))
		return rec[4 : len(rec)-4]
	}
	framed := func(bodies ...[]byte) []byte {
		var out []byte
		for _, b := range bodies {
			out = append(appendU16(out, uint16(len(b))), b...)
		}
		return out
	}
	first, second := body(7, rows[:20]), body(27, rows[20:])
	if wal, _ := decodeWAL(walImage(framed(first, second), nil), walSchema); wal.start != 7 || wal.n != len(rows) {
		f.Fatalf("seed image decodes to %d rows from %d", wal.n, wal.start)
	}
	rec := encodeWALRecord(27, batch(rows[20:]))
	flipped := append([]byte(nil), rec...)
	flipped[len(flipped)/2] ^= 0x10
	flippedBody := append([]byte(nil), second...)
	flippedBody[12] ^= 0x01 // the first cell's tag, framed with a matching CRC

	// One body spelled out byte by byte, so the seeds hold a -0 and an
	// int past 2^53 even if the encoder folds them.
	hand := appendU32(appendU64(nil, 3), 1)
	hand = appendU64(append(hand, 1), 1<<53+1)
	hand = appendU64(append(hand, 1), math.Float64bits(math.Copysign(0, -1)))
	hand = appendU64(append(append(hand, 0), 1), math.MaxUint64)
	hand = append(appendU32(append(hand, 1), uint32(len("☃"))), "☃"...)

	f.Add(framed(first, second), []byte(nil))
	f.Add(framed(hand), []byte(nil))
	f.Add(framed(first), rec[:len(rec)-3])                      // torn final record
	f.Add(framed(first), flipped)                               // bit flip under the CRC
	f.Add(framed(first, flippedBody), []byte(nil))              // bit flip over a matching CRC
	f.Add(framed(first, body(99, rows[:3])), []byte(nil))       // misordered startRow
	f.Add(framed(body(0, nil), first[:len(first)/2]), []byte{}) // empty record, then a cut body
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})    // an implausible length

	f.Fuzz(func(t *testing.T, bodies, tail []byte) {
		img := walImage(bodies, tail)
		wal, goodOff := decodeWAL(img, walSchema)
		if covered := crcCovered(img); goodOff < len(walMagic) || goodOff > covered {
			t.Fatalf("valid prefix ends at %d; the magic ends at %d and CRCs cover up to %d", goodOff, len(walMagic), covered)
		}
		reimg := append([]byte(walMagic), encodeWALRecord(wal.start, batchPrefix(wal.rows, wal.n))...)
		again, off := decodeWAL(reimg, walSchema)
		if off != len(reimg) || again.start != wal.start || again.n != wal.n || !walCellsEqual(wal.rows, again.rows, wal.n) {
			t.Fatalf("%d rows from stream row %d re-encode to %d rows from %d (valid to %d)", wal.n, wal.start, again.n, again.start, off)
		}
	})
}

// dictPair is one dict.log entry: a column and the string it interned.
type dictPair struct {
	col int
	s   string
}

// dictRecords walks a dict.log image's framing from the magic — u16
// column, u32 length, the string, then a CRC32C of those three — and
// returns the entries of the CRC-valid record prefix and the offset just
// past its last record.
func dictRecords(img []byte) (pairs []dictPair, end int) {
	end = len(dictMagic)
	for end+6 <= len(img) {
		n := int(binary.LittleEndian.Uint32(img[end+2:]))
		stop := end + 6 + n + 4
		if stop > len(img) || crc(img[end:stop-4]) != binary.LittleEndian.Uint32(img[stop-4:]) {
			break
		}
		pairs = append(pairs, dictPair{int(binary.LittleEndian.Uint16(img[end:])), string(img[end+6 : stop-4])})
		end = stop
	}
	return pairs, end
}

// FuzzDictLog feeds raw dict.log bytes to decodeDict, the parser
// recovery preloads the store dictionary through and truncates the file
// by. Whatever the bytes, it must not panic; goodOff must be exactly the
// end of the last CRC-valid record (the truncation point); and every
// interned (column, string) pair must come from a CRC-covered record,
// per column in first-appearance order.
func FuzzDictLog(f *testing.F) {
	img := []byte(dictMagic)
	for _, p := range []dictPair{{0, "LAB"}, {3, "日本語 ✓"}, {0, ""}, {0, "HALL"}, {3, "LAB"}, {0, "LAB"}} {
		img = append(img, encodeDictRecord(p.col, p.s)...)
	}
	last := encodeDictRecord(1, "ROOF")
	flipped := append([]byte(nil), last...)
	flipped[len(flipped)-6] ^= 0x20 // a byte of the string, under the CRC
	tornLen := append([]byte(nil), last...)
	binary.LittleEndian.PutUint32(tornLen[2:], math.MaxUint32) // a length past the file

	f.Add(img)
	f.Add(append(append([]byte(nil), img...), last[:len(last)-3]...)) // torn final record
	f.Add(append(append([]byte(nil), img...), flipped...))            // bit flip in the tail
	f.Add(append(append([]byte(nil), img...), tornLen...))            // implausible length
	f.Add(append(append(append([]byte(nil), img...), flipped...), last...))
	f.Add([]byte(dictMagic))
	f.Add([]byte("DWDIC02\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, img []byte) {
		dict, goodOff, magicOK := decodeDict(img)
		if len(img) < len(dictMagic) || string(img[:len(dictMagic)]) != dictMagic {
			if magicOK || goodOff != 0 || len(dict.columns()) != 0 {
				t.Fatalf("bad magic decoded: ok %v, valid to %d, %d columns", magicOK, goodOff, len(dict.columns()))
			}
			return
		}
		pairs, end := dictRecords(img)
		if !magicOK || goodOff != end {
			t.Fatalf("valid prefix ends at %d (magic ok %v); the last CRC-valid record ends at %d", goodOff, magicOK, end)
		}
		want := make(map[int][]string)
		seen := make(map[dictPair]bool)
		for _, p := range pairs {
			if !seen[p] {
				seen[p] = true
				want[p.col] = append(want[p.col], p.s)
			}
		}
		cols := dict.columns()
		if len(cols) != len(want) {
			t.Fatalf("%d dictionary columns, the covered records name %d", len(cols), len(want))
		}
		for _, c := range cols {
			got := dict.snapshot(c, dict.count(c))
			if len(got) != len(want[c]) {
				t.Fatalf("column %d: %q, the covered records hold %q", c, got, want[c])
			}
			for i := range got {
				if got[i] != want[c][i] {
					t.Fatalf("column %d: %q, the covered records hold %q", c, got, want[c])
				}
			}
		}
	})
}

// FuzzManifest feeds raw bytes to decodeManifest, the one reader of a
// table's manifest.json. Whatever the bytes, it must not panic, and a
// manifest it accepts must come from an envelope whose CRC32C is the
// checksum of the exact payload bytes it decoded, must pass the checks
// recovery relies on (format version, schema, segment geometry, a
// segment-aligned base) and must survive encodeManifest unchanged.
func FuzzManifest(f *testing.F) {
	const segBits = engine.MinSegmentBits
	good, err := encodeManifest(manifestFor("p", walSchema, segBits, 3<<segBits))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[bytes.Index(flipped, []byte(`"p"`))+1] ^= 0x01                     // the table name, under the CRC
	misaligned, err := encodeManifest(manifestFor("p", walSchema, segBits, 1)) // a correct CRC over a bad base
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(flipped)
	f.Add(misaligned)
	f.Add([]byte(`{"payload":{"format":2,"name":"p","seg_bits":6,"base":0,"schema":[{"name":"x","type":1}]},"crc32c":0}`))
	f.Add([]byte(`{"payload":null,"crc32c":343841484}`)) // a correct CRC over no manifest
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		var env manifestEnvelope
		if json.Unmarshal(data, &env) != nil || crc(env.Payload) != env.CRC32C {
			t.Fatalf("accepted an envelope whose CRC32C does not cover its payload: %q", data)
		}
		if m.Format != formatVersion || m.engineSchema().Validate() != nil ||
			m.SegBits < engine.MinSegmentBits || m.SegBits > 30 || m.Base < 0 || m.Base%(1<<m.SegBits) != 0 {
			t.Fatalf("accepted a manifest recovery cannot trust: %+v", m)
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := decodeManifest(enc); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("%+v re-encodes to %+v (%v)", m, again, err)
		}
	})
}
