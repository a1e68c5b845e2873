package store

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/engine"
)

// FuzzSegmentSection feeds raw bytes to decodeSection, the one decoder
// behind every read of a segment file's column data (per fault out of
// core, per column at a resident Open): whatever the bytes, the column
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
