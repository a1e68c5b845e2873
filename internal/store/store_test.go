package store

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/testgen"
)

// quietOpts returns Options that log nowhere and use fs.
func quietOpts(fs FS, syncEvery int) Options {
	return Options{FS: fs, SyncEvery: syncEvery, Logf: func(string, ...any) {}}
}

// valueEq is bit-identical Value equality: float cells compare by IEEE
// bits (NaN == NaN, -0.0 != +0.0), everything else by exact payload.
func valueEq(a, b engine.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case engine.TFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case engine.TString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// requireRowsMatch asserts every row of the recovered table is
// bit-identical to the stream-indexed oracle rows.
func requireRowsMatch(t *testing.T, tab *engine.Table, oracle [][]engine.Value) {
	t.Helper()
	if err := readRows(t, tab, oracle); err != nil {
		t.Fatal(err)
	}
}

// readRows reads every cell of tab through one RowReader, each checked
// against the stream-indexed oracle rows — a cell that differs fails t
// — and returns the chunk-load failure that stopped the read, if any.
func readRows(t *testing.T, tab *engine.Table, oracle [][]engine.Value) (err error) {
	t.Helper()
	defer engine.CatchSegmentLoad(&err)
	rr := tab.NewRowReader()
	defer rr.Close()
	row := make([]engine.Value, tab.NumCols())
	for r := 0; r < tab.NumRows(); r++ {
		id := tab.Base() + r
		if id >= len(oracle) {
			t.Fatalf("recovered stream row %d beyond oracle end %d", id, len(oracle))
		}
		rr.RowInto(r, row)
		for c, got := range row {
			if want := oracle[id][c]; !valueEq(got, want) {
				t.Fatalf("stream row %d col %d: got %v want %v", id, c, got, want)
			}
		}
	}
	return nil
}

func TestStoreRoundtripOSFS(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("P", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var oracle [][]engine.Value
	for i := 0; i < 9; i++ {
		batch := testgen.Batch(rng, 40+rng.Intn(60))
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := st2.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "P" {
		t.Fatalf("recovered name %q, want original case P", tab.Name())
	}
	if tab.Version() != len(oracle) {
		t.Fatalf("recovered %d rows, want %d", tab.Version(), len(oracle))
	}
	requireRowsMatch(t, tab, oracle)
	stats := st2.Stats()
	ts := stats.Tables["p"]
	if len(ts.Quarantined) != 0 || ts.GapSegments != 0 || ts.Failed != "" || len(stats.Skipped) != 0 {
		t.Fatalf("clean reopen reported damage: %+v", stats)
	}

	// Keep appending after recovery, reopen once more.
	batch := testgen.Batch(rng, 100)
	if _, err := st2.Append("p", batch); err != nil {
		t.Fatal(err)
	}
	oracle = append(oracle, batch...)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	tab, err = st3.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Version() != len(oracle) {
		t.Fatalf("second recovery: %d rows, want %d", tab.Version(), len(oracle))
	}
	requireRowsMatch(t, tab, oracle)
}

func TestStoreRetentionDurable(t *testing.T) {
	mem := NewMemFS()
	st, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var oracle [][]engine.Value
	for i := 0; i < 6; i++ {
		batch := testgen.Batch(rng, 64)
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	nt, stats, err := st.Retain("p", engine.RetentionPolicy{MaxRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedSegments == 0 {
		t.Fatal("retention dropped nothing")
	}
	wantBase := nt.Base()
	for _, f := range mem.Files() {
		if idx := parseSegFileName(f[len("/db/p/"):]); idx >= 0 && idx < wantBase>>engine.MinSegmentBits {
			t.Fatalf("retained-out segment file %s still present", f)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tab, err := st2.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Base() != wantBase || tab.Version() != len(oracle) {
		t.Fatalf("recovered base/version %d/%d, want %d/%d", tab.Base(), tab.Version(), wantBase, len(oracle))
	}
	requireRowsMatch(t, tab, oracle)
}

func TestStoreSyncEveryBatching(t *testing.T) {
	mem := NewMemFS()
	st, err := Open("/db", quietOpts(mem, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var oracle [][]engine.Value
	for i := 0; i < 3; i++ { // 3 batches of 5: under SyncEvery, no seal
		batch := testgen.Batch(rng, 5)
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	// A crash now may lose all three unsynced batches — but recovery
	// must still yield a clean batch prefix (here: the empty one).
	mem.Crash(rand.New(rand.NewSource(1)))
	st2, err := Open("/db", quietOpts(mem, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tab, err := st2.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.Version(); v != 0 && v != 5 && v != 10 && v != 15 {
		t.Fatalf("recovered %d rows: not a batch prefix of 3x5", v)
	}
	requireRowsMatch(t, tab, oracle)
}

func TestStoreFailStop(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	st, err := Open("/db", quietOpts(ffs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var oracle [][]engine.Value
	for i := 0; i < 2; i++ {
		batch := testgen.Batch(rng, 64)
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	acked, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}

	// Fail the very next mutating operation (the WAL append write).
	ffs.FailAt(1, FaultError, rand.New(rand.NewSource(2)))
	if _, err := st.Append("p", testgen.Batch(rng, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with injected fault returned %v", err)
	}
	// Fail-stop: later mutations refuse without touching the disk...
	if _, err := st.Append("p", testgen.Batch(rng, 8)); err == nil {
		t.Fatal("append after fail-stop succeeded")
	}
	if _, _, err := st.Retain("p", engine.RetentionPolicy{MaxRows: 64}); err == nil {
		t.Fatal("retain after fail-stop succeeded")
	}
	if got := st.Stats().Tables["p"].Failed; got == "" {
		t.Fatal("stats do not report the fail-stop")
	}
	// ...while reads keep serving the last published version.
	cur, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version() != acked.Version() {
		t.Fatalf("published version moved across fail-stop: %d -> %d", acked.Version(), cur.Version())
	}

	// A restart (no crash — the disk is intact) recovers everything
	// acknowledged before the fault.
	_ = st.Close()
	st2, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tab, err := st2.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Version() < len(oracle) {
		t.Fatalf("recovery lost acknowledged rows: %d < %d", tab.Version(), len(oracle))
	}
	requireRowsMatch(t, tab, oracle)
	if _, err := st2.Append("p", testgen.Batch(rng, 8)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestStoreErrors(t *testing.T) {
	mem := NewMemFS()
	st, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("nope", testgen.Batch(rand.New(rand.NewSource(1)), 1)); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("append to unknown table: %v", err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("P", testgen.Schema(), engine.MinSegmentBits); err == nil {
		t.Fatal("duplicate CreateTable succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := st.Append("p", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store: %v", err)
	}
	if err := st.CreateTable("q", testgen.Schema(), engine.MinSegmentBits); !errors.Is(err, ErrClosed) {
		t.Fatalf("create on closed store: %v", err)
	}
}

func TestStoreCloseSurfacesSyncError(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	st, err := Open("/db", quietOpts(ffs, 100)) // keep batches unsynced
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("p", testgen.Batch(rand.New(rand.NewSource(1)), 5)); err != nil {
		t.Fatal(err)
	}
	// The next mutating op is Close's flush of the pending WAL batch.
	ffs.FailAt(1, FaultError, rand.New(rand.NewSource(2)))
	if err := st.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close with failing fsync returned %v, want ErrInjected", err)
	}
}

// TestEncodeSegmentRemapsCodes: engine dictionary codes are
// process-local; a seal translates them into the store's own through one
// remap, whatever order the two dictionaries grew in, and interns only
// the strings the segment actually holds.
func TestEncodeSegmentRemapsCodes(t *testing.T) {
	schema := engine.NewSchema("s", engine.TString)
	tbl, err := engine.NewTableSeg("p", schema, engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for _, s := range []string{"never-sealed-again", "x", "y"} {
		rows = append(rows, []engine.Value{engine.NewString(s)})
	}
	want := make([]engine.Value, 64)
	for i := range want {
		if want[i] = engine.NewString([]string{"y", "x", "z"}[i%3]); i%7 == 0 {
			want[i] = engine.Null
		}
	}
	for i := 3; i < 2*64+1; i++ {
		rows = append(rows, []engine.Value{want[i%64]})
	}
	if tbl, err = tbl.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	dict := newStoreDict()
	dict.intern(0, "z")
	dict.intern(0, "q")
	chunks, dicts := tbl.SegmentChunks(1) // rows 64..127: y, x, z and NULLs under engine codes 2, 1, 3
	image := encodeSegment(schema, engine.MinSegmentBits, 1, chunks, dicts, dict)
	if got := dict.snapshot(0, dict.count(0)); len(got) != 4 || got[2] != "x" || got[3] != "y" {
		t.Fatalf("store dictionary after the seal: %q, want z q x y (first appearance within the segment)", got)
	}

	mem := NewMemFS()
	if err := mem.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(mem, "d/"+segFileName(1), image); err != nil {
		t.Fatal(err)
	}
	meta, err := openSegMeta(mem, "d/"+segFileName(1), schema, engine.MinSegmentBits, 1, dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4+meta.secLen[0]+4)
	if _, err := mem.ReadAt(meta.path, meta.secOff[0], buf); err != nil {
		t.Fatal(err)
	}
	section, err := checkSection(buf, meta.secLen[0])
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeSection(section, engine.TString, engine.MinSegmentBits, chunkCodes, meta.dictHW[0])
	if err != nil {
		t.Fatal(err)
	}
	values := dict.snapshot(0, dict.count(0))
	for i, code := range back.Codes {
		if w := want[i]; w.IsNull() != (code < 0) || (code >= 0 && values[code] != w.S) {
			t.Fatalf("row %d: store code %d, appended %v", i, code, w)
		}
	}
}
