package datasets

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/engine"
)

// TestGeneratorsPinned pins what the generators produce, cell for cell:
// an FNV-64a over every cell's type and value bits, row-major, plus the
// row and segment counts. TestIntelDeterministic compares two runs of the
// same code and cannot see a changed generator; this can. A deliberate
// change to a generator updates these constants and says so.
func TestGeneratorsPinned(t *testing.T) {
	intel, _ := Intel(IntelConfig{Rows: 100_000, Seed: 1})
	fec, _ := FEC(FECConfig{Rows: 60_000, Seed: 1})
	for _, tc := range []struct {
		tbl          *engine.Table
		rows, sealed int
		sum          uint64
	}{
		{intel, 100_000, 1, 0xee7faca8413edeaf},
		{fec, 60_000, 0, 0x097a3abdf4304f77},
	} {
		sealed, _ := tc.tbl.NumSegments()
		if tc.tbl.NumRows() != tc.rows || sealed != tc.sealed {
			t.Errorf("%s: %d rows, %d sealed segments; want %d, %d", tc.tbl.Name(), tc.tbl.NumRows(), sealed, tc.rows, tc.sealed)
		}
		if got := cellSum(tc.tbl); got != tc.sum {
			t.Errorf("%s: cell hash %016x, want %016x", tc.tbl.Name(), got, tc.sum)
		}
	}
}

// cellSum hashes every cell of t: its type, then its payload.
func cellSum(t *engine.Table) uint64 {
	h := fnv.New64a()
	rr := t.NewRowReader()
	defer rr.Close()
	var buf [9]byte
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			v := rr.Value(r, c)
			buf[0] = byte(v.T)
			switch v.T {
			case engine.TFloat:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
				h.Write(buf[:])
			case engine.TString:
				h.Write(buf[:1])
				binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
				h.Write(buf[1:])
				h.Write([]byte(v.S))
			default:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
