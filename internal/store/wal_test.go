package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/engine"
)

// pinnedRows are deterministic rows over every column type, with the
// cells a codec gets wrong: NULLs, -0.0, NaN, ints past 2^53, negative
// times, the empty string and multi-byte strings.
func pinnedRows(lo, hi int) [][]engine.Value {
	strs := []string{"", "a", "é", "mote 7", "☃"}
	rows := make([][]engine.Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := []engine.Value{
			engine.NewInt(int64(r)*37 - 500),
			engine.NewFloat(float64(r) / 3),
			engine.NewBool(r%3 == 0),
			engine.NewTimeUnix(int64(r)*3600 - 7200),
			engine.NewString(strs[r%len(strs)]),
		}
		switch r % 11 {
		case 1:
			row[0] = engine.NewInt(1<<60 + int64(r))
			row[1] = engine.NewFloat(math.Copysign(0, -1))
		case 4:
			row[1] = engine.NewFloat(math.NaN())
			row[3] = engine.NewTimeUnix(-(1 << 55))
		}
		for c := range row {
			if (r+c)%7 == 0 {
				row[c] = engine.Null
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TestOnDiskBytesPinned pins the bytes a fixed append sequence leaves on
// disk — wal.log after two plain appends, then the segment file, dict.log
// and the WAL rewritten down to the tail after a seal, then the same WAL
// rewritten by a reopen — to the SHA-256s recorded when appends still
// logged boxed rows: the batch path changed no byte of the format, and
// recovery reads back every cell bit for bit.
func TestOnDiskBytesPinned(t *testing.T) {
	fs := NewMemFS()
	schema := engine.NewSchema("i", engine.TInt, "f", engine.TFloat, "b", engine.TBool, "t", engine.TTime, "s", engine.TString)
	st, err := Open("/db", quietOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", schema, engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	sum := func(name string) string {
		data, err := readFileAll(fs, join("/db/p", name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		return hex.EncodeToString(h[:8])
	}
	check := func(step, name, want string) {
		t.Helper()
		if got := sum(name); got != want {
			t.Errorf("%s: %s hashes to %s, want %s", step, name, got, want)
		}
	}
	oracle := pinnedRows(0, 100)
	for _, span := range [][2]int{{0, 20}, {20, 40}} {
		if _, err := st.Append("p", oracle[span[0]:span[1]]); err != nil {
			t.Fatal(err)
		}
	}
	check("two appends", walFileName, "b7372ed7ff11c590")
	if _, err := st.Append("p", oracle[40:]); err != nil { // seals segment 0
		t.Fatal(err)
	}
	check("seal", segFileName(0), "faa4916cf3ef930b")
	check("seal", dictFileName, "2101b3090d9bbcfe")
	check("seal", walFileName, "4df639e767a4513e")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open("/db", quietOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("reopen", walFileName, "4df639e767a4513e")
	tab, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(oracle) {
		t.Fatalf("reopened with %d rows, want %d", tab.NumRows(), len(oracle))
	}
	requireRowsMatch(t, tab, oracle)
}
