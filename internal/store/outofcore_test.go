package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/testgen"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// outOfCoreOpts is quietOpts plus a (tiny, unless overridden) buffer
// pool so tests exercise eviction thrash, not just the happy path.
func outOfCoreOpts(fs vfs.FS, cacheBytes int64) Options {
	o := quietOpts(fs, 1)
	o.MaxResidentBytes = cacheBytes
	return o
}

// buildStream appends nbatch random batches to table "p" on fs and
// returns the oracle: the rows the store acknowledged, in stream order
// (testgen rows are already of their columns' types).
func buildStream(t *testing.T, fs vfs.FS, rng *rand.Rand, nbatch int) [][]engine.Value {
	t.Helper()
	st, err := Open("d", quietOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("P", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	var oracle [][]engine.Value
	for i := 0; i < nbatch; i++ {
		batch := testgen.Batch(rng, 40+rng.Intn(60))
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return oracle
}

// TestOutOfCoreDifferential reopens the same directory with a pool far
// smaller than the data (forcing eviction thrash) and with no cap, and
// requires both to read bit-identically to the acknowledged rows — not
// to each other: they share their decoders — across post-open appends,
// and a quiesced pool.
func TestOutOfCoreDifferential(t *testing.T) {
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(42))
	oracle := buildStream(t, fs, rng, 12)

	lazy, err := Open("d", outOfCoreOpts(fs, 4096))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lazy.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	nsealed, _ := tab.NumSegments()
	if nsealed == 0 {
		t.Fatal("fixture produced no sealed segments")
	}
	for k := 0; k < nsealed; k++ {
		if !tab.SegmentFaultable(k) {
			t.Fatalf("segment %d not faultable after out-of-core open", k)
		}
		if _, ok := tab.SegmentZone(k, 2); !ok {
			t.Fatalf("segment %d missing zone map", k)
		}
	}
	requireRowsMatch(t, tab, oracle)

	// Column readers fault through the pool; spot-check them too.
	fr, sr, dict := tab.NewColReader(2), tab.NewColReader(3), tab.Dict(3)
	defer fr.Close()
	defer sr.Close()
	for r := 0; r < tab.NumRows(); r++ {
		want := oracle[tab.Base()+r]
		f, null := fr.Float(r)
		got := engine.Value{T: engine.TFloat, F: f}
		if null {
			got = engine.Null
		}
		if want[2].IsNull() != got.IsNull() || (!want[2].IsNull() && !valueEq(got, want[2])) {
			t.Fatalf("float reader row %d: got %v want %v", r, got, want[2])
		}
		code := sr.Code(r)
		if want[3].IsNull() {
			if code >= 0 {
				t.Fatalf("code reader row %d: got code %d, want NULL", r, code)
			}
		} else if dict.Value(code) != want[3].S {
			t.Fatalf("code reader row %d: got %q want %q", r, dict.Value(code), want[3].S)
		}
	}
	fr.Close()
	sr.Close()

	// Post-open appends seal segments this process holds next to the
	// faultable ones; strings new to the table extend both dictionaries.
	for i := 0; i < 6; i++ {
		batch := testgen.Batch(rng, 50)
		batch[0][3] = engine.NewString(fmt.Sprintf("late-%d", i))
		if _, err := lazy.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	tab2, err := lazy.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Version() != len(oracle) {
		t.Fatalf("lazy table ends at stream row %d, %d acknowledged", tab2.Version(), len(oracle))
	}
	requireRowsMatch(t, tab2, oracle) // faults old segments, reads new ones

	ps := lazy.Stats().Pool
	if ps == nil {
		t.Fatal("no pool stats in out-of-core mode")
	}
	if ps.Misses == 0 {
		t.Fatal("no pool misses recorded")
	}
	if ps.Evictions == 0 {
		t.Fatalf("tiny pool recorded no evictions: %+v", ps)
	}
	if ps.UsedBytes > 4096 && ps.Pinned == 0 {
		t.Fatalf("unpinned pool over budget: %+v", ps)
	}
	if got := lazy.PoolPinned(); got != 0 {
		t.Fatalf("%d entries still pinned at quiesce", got)
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}

	// The appends above spilled new segments; a fresh uncapped open and a
	// fresh capped one both attach every segment faultable and must both
	// serve exactly what was acknowledged.
	for _, cache := range []int64{0, 4096} {
		re, err := Open("d", outOfCoreOpts(fs, cache))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := re.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}
		if rt.Base() != 0 || rt.Version() != len(oracle) || !rt.SegmentFaultable(0) {
			t.Fatalf("cache=%d: reopened window (%d,%d), faultable %v; %d rows acknowledged",
				cache, rt.Base(), rt.Version(), rt.SegmentFaultable(0), len(oracle))
		}
		requireRowsMatch(t, rt, oracle)
		_ = re.Close()
	}
}

// TestStoreEdgeCellsBothReopens drives the cells a lossy codec mangles
// — ints at and past ±2^53, NaN payloads, signed zeros, strings
// differing only in case — through seal, spill and both reopens, twice
// (the second round appends to a recovered table, whose dictionary was
// preloaded), comparing every cell with the acknowledged rows.
func TestStoreEdgeCellsBothReopens(t *testing.T) {
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(23))
	st, err := Open("d", quietOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", enginetest.EdgeSchema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	var oracle [][]engine.Value
	for round, cache := range []int64{0, 1 << 20, 0} {
		for i := 0; i < 4; i++ {
			batch := enginetest.EdgeRows(rng, 70+rng.Intn(40))
			batch[0][3] = engine.NewString(fmt.Sprintf("round-%d-%d", round, i))
			if _, err := st.Append("p", batch); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, batch...)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open("d", outOfCoreOpts(fs, cache)); err != nil {
			t.Fatal(err)
		}
		tab, err := st.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}
		if ts := st.Stats().Tables["p"]; len(ts.Quarantined) != 0 || tab.Base() != 0 || tab.Version() != len(oracle) {
			t.Fatalf("round %d (cache %d): %+v, window (%d,%d) of %d rows", round, cache, ts, tab.Base(), tab.Version(), len(oracle))
		}
		requireRowsMatch(t, tab, oracle)
	}
	_ = st.Close()
}

// TestOutOfCoreRetention runs a durable retention pass in out-of-core
// mode: the pool must drop the retained segments' chunks, reads on the
// new window must still match, and a reopen agrees.
func TestOutOfCoreRetention(t *testing.T) {
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(7))
	oracle := buildStream(t, fs, rng, 10)

	lazy, err := Open("d", outOfCoreOpts(fs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := lazy.Eng().Table("p")
	requireRowsMatch(t, tab, oracle) // warm the pool over all segments
	nt, stats, err := lazy.RetainCtx(t.Context(), "p", engine.RetentionPolicy{MaxRows: 3 * (1 << engine.MinSegmentBits)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedSegments == 0 {
		t.Fatal("retention dropped nothing")
	}
	requireRowsMatch(t, nt, oracle)
	if got := lazy.PoolPinned(); got != 0 {
		t.Fatalf("%d entries pinned after retention", got)
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open("d", outOfCoreOpts(fs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := re.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Base() != nt.Base() {
		t.Fatalf("reopened base %d, want %d", rt.Base(), nt.Base())
	}
	requireRowsMatch(t, rt, oracle)
	_ = re.Close()
}

// TestPoolLifecycle follows the chunks of an uncapped pool: a failed
// read is the reader's I/O error and leaves nothing pinned or cached; a
// full read caches every chunk, so a second is all hits; and retention
// takes the retired segments' chunks out of the pool's entry map.
func TestPoolLifecycle(t *testing.T) {
	fs := vfstest.NewMemFS()
	oracle := buildStream(t, fs, rand.New(rand.NewSource(5)), 10)
	st, err := Open("d", outOfCoreOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tab, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	fs.FailReadAt(1)
	err = readRows(t, tab, oracle)
	var sle *engine.SegmentLoadError
	if !errors.As(err, &sle) || !errors.Is(err, vfstest.ErrInjected) || st.PoolPinned() != 0 {
		t.Fatalf("a failed chunk read: error %v, %d chunks pinned; want the injected fault as a SegmentLoadError, none pinned", err, st.PoolPinned())
	}
	requireRowsMatch(t, tab, oracle)
	warm := *st.Stats().Pool
	requireRowsMatch(t, tab, oracle)
	if p := *st.Stats().Pool; warm.Misses == 0 || p.Misses != warm.Misses || p.Hits <= warm.Hits || p.Evictions != 0 {
		t.Fatalf("an uncapped pool did not serve a second read from cache: %+v, then %+v", warm, p)
	}
	nt, _, err := st.RetainCtx(t.Context(), "p", engine.RetentionPolicy{MaxRows: 3 << engine.MinSegmentBits})
	if err != nil {
		t.Fatal(err)
	}
	first := nt.Base() >> engine.MinSegmentBits
	if first == 0 {
		t.Fatal("retention dropped nothing")
	}
	st.pool.mu.Lock()
	defer st.pool.mu.Unlock()
	for key := range st.pool.entries {
		if key.seg < first {
			t.Fatalf("the pool still holds retired segment %d's chunk %+v (first kept %d)", key.seg, key, first)
		}
	}
}

// TestRetentionKeepsStaleVersionsReadable reads a table version from
// before a retention pass, during and after the pass that unlinked its
// recovered segment files. It must read every row it did before —
// through the handles retention left behind, without caching the
// dropped segments' chunks again — and once no version holds the
// dropped segments, the handles close.
func TestRetentionKeepsStaleVersionsReadable(t *testing.T) {
	for _, cache := range []int64{0, 4096} {
		fs := vfstest.NewMemFS()
		oracle := buildStream(t, fs, rand.New(rand.NewSource(11)), 10)
		st, err := Open("d", outOfCoreOpts(fs, cache))
		if err != nil {
			t.Fatal(err)
		}
		old, err := st.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}
		var metas []*segMeta
		for _, m := range st.tables["p"].loader.metas {
			metas = append(metas, m)
		}
		// A scan in flight across the pass completes too.
		inflight := make(chan error, 1)
		go func() {
			var err error
			defer func() { inflight <- err }()
			defer engine.CatchSegmentLoad(&err)
			for pass := 0; pass < 20; pass++ {
				fr := old.NewColReader(2)
				for r := 0; r < old.NumRows(); r++ {
					fr.Float(r)
				}
				fr.Close()
			}
		}()
		nt, stats, err := st.RetainCtx(t.Context(), "p", engine.RetentionPolicy{MaxRows: 3 << engine.MinSegmentBits})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-inflight; err != nil {
			t.Fatalf("cache=%d: scan in flight across retention: %v", cache, err)
		}
		if stats.DroppedSegments == 0 {
			t.Fatalf("cache=%d: retention dropped nothing", cache)
		}
		first := nt.Base() >> engine.MinSegmentBits
		var retired []*segMeta
		for _, m := range metas {
			if _, err := fs.FileSize(m.path); (err != nil) != (m.segIdx < first) || (m.handle() != nil) != (m.segIdx < first) {
				t.Fatalf("cache=%d: segment %d (first kept %d): file error %v, handle %v", cache, m.segIdx, first, err, m.handle() != nil)
			}
			if m.segIdx < first {
				retired = append(retired, m)
			}
		}

		requireRowsMatch(t, old, oracle)
		requireRowsMatch(t, nt, oracle)
		st.pool.mu.Lock()
		for key := range st.pool.entries {
			if key.seg < first {
				t.Errorf("cache=%d: pool caches dropped segment %d's chunk %+v", cache, key.seg, key)
			}
		}
		st.pool.mu.Unlock()

		old, nt = nil, nil
		for tries := 0; ; tries++ {
			runtime.GC()
			open := 0
			for _, m := range retired {
				if m.handle() != nil {
					open++
				}
			}
			if open == 0 {
				break
			}
			if tries == 100 {
				t.Fatalf("cache=%d: %d retired handles still open after every version holding them went", cache, open)
			}
			time.Sleep(10 * time.Millisecond)
		}
		_ = st.Close()
	}
}

// segHeaderLen reads the header length field of a segment file image.
func segHeaderLen(t *testing.T, fs *vfstest.MemFS, path string) int {
	t.Helper()
	buf := make([]byte, len(segMagic)+4)
	if _, err := fs.ReadAt(path, 0, buf); err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint32(buf[len(segMagic):]))
}

// firstSegPath returns the path of the lowest-indexed segment file.
func firstSegPath(t *testing.T, fs *vfstest.MemFS) string {
	t.Helper()
	for _, f := range fs.Files() {
		if strings.HasSuffix(f, segFileName(0)) {
			return f
		}
	}
	t.Fatal("no segment 0 file")
	return ""
}

// TestOutOfCoreZoneCorruptionDegrades flips a bit inside a zone block:
// the out-of-core open must NOT quarantine the segment — it serves it
// without zone maps, logging the reason — and reads stay bit-identical.
func TestOutOfCoreZoneCorruptionDegrades(t *testing.T) {
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(3))
	oracle := buildStream(t, fs, rng, 8)

	path := firstSegPath(t, fs)
	headerLen := segHeaderLen(t, fs, path)
	zoneOff := int64(len(segMagic) + 4 + headerLen + 4)
	if err := fs.FlipBit(path, zoneOff+16, 3); err != nil { // inside zone body
		t.Fatal(err)
	}

	var logged []string
	o := outOfCoreOpts(fs, 1<<20)
	o.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	lazy, err := Open("d", o)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lazy.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.SegmentFaultable(0) {
		if _, ok := tab.SegmentZone(0, 0); ok {
			t.Fatal("damaged zone block still served")
		}
	} else {
		t.Fatal("segment 0 not faultable")
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "zone block ignored") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no zone degradation log; got %q", logged)
	}
	for _, st := range lazy.Stats().Tables {
		if len(st.Quarantined) != 0 {
			t.Fatalf("zone damage quarantined a segment: %v", st.Quarantined)
		}
	}
	requireRowsMatch(t, tab, oracle)
	_ = lazy.Close()
}

// TestOutOfCoreSectionCorruptionFaults flips a bit inside a column
// section: the open still succeeds (sections are not read at open),
// and the first fault of that chunk quarantines the file and surfaces
// a SegmentLoadError — never silent data.
func TestOutOfCoreSectionCorruptionFaults(t *testing.T) {
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(11))
	buildStream(t, fs, rng, 8)

	path := firstSegPath(t, fs)
	size, err := fs.FileSize(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip in the middle of the sections region (past header+zones,
	// before the footer).
	if err := fs.FlipBit(path, size/2, 5); err != nil {
		t.Fatal(err)
	}

	lazy, err := Open("d", outOfCoreOpts(fs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lazy.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	readAll := func() (err error) {
		defer engine.CatchSegmentLoad(&err)
		for r := 0; r < tab.NumRows(); r++ {
			for c := 0; c < tab.NumCols(); c++ {
				_ = tab.Value(r, c)
			}
		}
		return nil
	}
	if err := readAll(); err == nil {
		t.Fatal("corrupted section served without error")
	}
	quarantined := false
	for _, st := range lazy.Stats().Tables {
		if len(st.Quarantined) > 0 {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("fault-time corruption not quarantined in stats")
	}
	if got := lazy.PoolPinned(); got != 0 {
		t.Fatalf("%d entries pinned after failed fault", got)
	}
	_ = lazy.Close()
}

// toV1 rewrites a segment file image as the retired format version 1:
// version field 1, no zone block, checksums recomputed — a faithful old
// file, not a corrupt new one.
func toV1(t *testing.T, image []byte) []byte {
	t.Helper()
	headerLen := int(binary.LittleEndian.Uint32(image[len(segMagic):]))
	hOff := len(segMagic) + 4
	header := append([]byte(nil), image[hOff:hOff+headerLen]...)
	binary.LittleEndian.PutUint32(header, 1)
	zoneOff := hOff + headerLen + 4
	zoneLen := int(binary.LittleEndian.Uint32(image[zoneOff:]))
	sections := image[zoneOff+4+zoneLen+4 : len(image)-4-len(segEndMagic)]
	out := appendU32([]byte(segMagic), uint32(headerLen))
	out = appendU32(append(out, header...), crc(header))
	out = append(out, sections...)
	return append(appendU32(out, crc(out)), segEndMagic...)
}

// TestV1FilesRejected: format version 1 (no zone block) is retired.
// Every v1 segment file is quarantined at Open, resident and out of
// core alike, with a reason that names the version — and like any
// undecodable file it costs the rows it held, not the table: the WAL
// tail still serves. A v1 manifest is unreadable the same way and is
// rebuilt from a (current) segment header, losing nothing.
func TestV1FilesRejected(t *testing.T) {
	for _, cache := range []int64{0, 1 << 20} {
		fs := vfstest.NewMemFS()
		oracle := buildStream(t, fs, rand.New(rand.NewSource(5)), 8)
		nseg := 0
		for _, f := range fs.Files() {
			if !strings.HasSuffix(f, ".seg") {
				continue
			}
			image, err := readFileAll(fs, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFileAtomic(fs, f, toV1(t, image)); err != nil {
				t.Fatal(err)
			}
			nseg++
		}
		var logged []string
		o := outOfCoreOpts(fs, cache)
		o.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		st, err := Open("d", o)
		if err != nil {
			t.Fatalf("cache=%d: %v", cache, err)
		}
		tb, err := st.Eng().Table("p")
		if err != nil {
			t.Fatalf("cache=%d: v1 files lost the table: %v", cache, err)
		}
		ts := st.Stats().Tables["p"]
		if len(ts.Quarantined) != nseg || ts.GapSegments != nseg {
			t.Fatalf("cache=%d: quarantined %v, gap %d; want all %d v1 files set aside", cache, ts.Quarantined, ts.GapSegments, nseg)
		}
		named := 0
		for _, l := range logged {
			if strings.Contains(l, "unsupported format version 1") {
				named++
			}
		}
		if named != nseg {
			t.Fatalf("cache=%d: %d of %d quarantine reasons name the version: %q", cache, named, nseg, logged)
		}
		if sealed, tail := tb.NumSegments(); sealed != 0 || tail == 0 || tb.Base() != nseg<<engine.MinSegmentBits {
			t.Fatalf("cache=%d: served %d segments + %d tail rows at base %d, want the WAL tail only", cache, sealed, tail, tb.Base())
		}
		requireRowsMatch(t, tb, oracle)
		_ = st.Close()
	}

	fs := vfstest.NewMemFS()
	oracle := buildStream(t, fs, rand.New(rand.NewSource(5)), 8)
	old := manifestFor("P", testgen.Schema(), engine.MinSegmentBits, 0)
	old.Format = 1
	enc, err := encodeManifest(old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeManifest(enc); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("v1 manifest: %v, want an explicit version rejection", err)
	}
	if err := writeFileAtomic(fs, "d/p/"+manifestName, enc); err != nil {
		t.Fatal(err)
	}
	st, err := Open("d", quietOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if ts := st.Stats().Tables["p"]; len(ts.Quarantined) != 0 || tb.Base() != 0 || tb.NumRows() != len(oracle) {
		t.Fatalf("v1 manifest cost data: %+v, %d of %d rows from base %d", ts, tb.NumRows(), len(oracle), tb.Base())
	}
	requireRowsMatch(t, tb, oracle)
	_ = st.Close()
}

// TestBenchShapesFaultTypedChunksOnly runs the benchmark's eight scan
// statement shapes (bench/script.go) over faultable copies of its two
// tables and then reads the pool — sized to evict nothing, so it holds
// every chunk the statements ever faulted: all of them are float or
// dictionary-code chunks of at most 8 bytes a row. No statement on the
// production path decodes a boxed chunk (the kind is gone), and the
// exact-int arm behind RowReader stays idle on data with no int past
// 2^53.
func TestBenchShapesFaultTypedChunksOnly(t *testing.T) {
	const segBits = 12
	fs := vfstest.NewMemFS()
	st, err := Open("d", quietOpts(fs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	readings, _ := datasets.Intel(datasets.IntelConfig{Rows: 6*(1<<segBits) + 500, Seed: 1})
	donations, _ := datasets.FEC(datasets.FECConfig{Rows: 3*(1<<segBits) + 500, Seed: 1})
	for _, tb := range []*engine.Table{readings, donations} {
		if err := st.CreateTable(tb.Name(), tb.Schema(), segBits); err != nil {
			t.Fatal(err)
		}
		rows := make([][]engine.Value, tb.NumRows())
		for r := range rows {
			rows[r] = tb.Row(r)
		}
		if _, err := st.Append(tb.Name(), rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lazy, err := Open("d", outOfCoreOpts(fs, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	faulted := 0
	for shape, sql := range map[string]string{
		"grouped":   "SELECT bucket(epoch(ts), 1800) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w",
		"selective": "SELECT bucket(epoch(ts), 3600) AS w, avg(temperature) AS avg_temp, count(*) AS n FROM readings WHERE moteid = 17 AND temperature > 66.5 GROUP BY bucket(epoch(ts), 3600) ORDER BY w",
		"global":    "SELECT count(*) AS n, sum(temperature) AS total, min(temperature) AS lo, max(temperature) AS hi FROM readings WHERE humidity > 38.25",
		"orchain":   "SELECT moteid, count(*) AS n, avg(voltage) AS volts FROM readings WHERE moteid = 17 OR temperature > 101.5 OR humidity < -3.2 GROUP BY moteid ORDER BY moteid",
		"zonemap":   "SELECT moteid, avg(temperature) AS avg_temp FROM readings WHERE epoch BETWEEN 100 AND 200 GROUP BY moteid ORDER BY moteid",
		"fecdaily":  datasets.FECDailySQL("McCain"),
		"residual":  "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' AND memo LIKE '%SPOUSE%' GROUP BY day ORDER BY day",
		"distinct":  "SELECT count(DISTINCT epoch) AS n FROM readings WHERE moteid = 17",
	} {
		res, err := testgen.Query(t.Context(), lazy.Eng(), sql)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if res.NumRows() == 0 || !res.Plan.Vectorized {
			t.Fatalf("%s: %d rows, plan %+v", shape, res.NumRows(), res.Plan)
		}
		faulted += res.Plan.ChunksFaulted
	}
	if faulted == 0 || lazy.PoolPinned() != 0 {
		t.Fatalf("%d chunks faulted, %d still pinned", faulted, lazy.PoolPinned())
	}
	lazy.pool.mu.Lock()
	defer lazy.pool.mu.Unlock()
	if lazy.pool.evictions != 0 || len(lazy.pool.entries) == 0 {
		t.Fatalf("pool evicted %d chunks, holds %d: the census below would be partial", lazy.pool.evictions, len(lazy.pool.entries))
	}
	const maxChunk = (1<<segBits)*8 + (1<<segBits)/64*8 // 8-byte cells + NULL words
	for key, e := range lazy.pool.entries {
		if key.kind != chunkFloat && key.kind != chunkCodes {
			t.Errorf("%s segment %d column %d: faulted a chunk of kind %d", key.table, key.seg, key.col, key.kind)
		}
		if e.size > maxChunk {
			t.Errorf("%s segment %d column %d: chunk of %d bytes, a typed chunk is at most %d", key.table, key.seg, key.col, e.size, maxChunk)
		}
	}
}
