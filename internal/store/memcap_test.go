package store

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sqlparse"
)

// TestOutOfCoreBoundedHeap opens a table more than 10x the buffer pool
// and scans it repeatedly: the pool must stay at or under its budget,
// and the process heap must grow by far less than the decoded table —
// the point of out-of-core serving. The CI memory-capped job runs this
// under GOMEMLIMIT, where a regression to eager residency doesn't just
// fail the growth assertion, it sends the GC into a visible thrash.
func TestOutOfCoreBoundedHeap(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}
	const (
		segBits    = 12 // 4096-row segments
		nrows      = 120_000
		cacheBytes = 256 << 10
	)
	schema := engine.NewSchema("k", engine.TInt, "v", engine.TFloat, "w", engine.TFloat, "s", engine.TString)

	st, err := Open(dir, Options{SyncEvery: 256, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("big", schema, segBits); err != nil {
		t.Fatal(err)
	}
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for lo := 0; lo < nrows; lo += 4096 {
		rows := make([][]engine.Value, 4096)
		for i := range rows {
			r := lo + i
			rows[i] = []engine.Value{
				engine.NewInt(int64(r)),
				engine.NewFloat(float64(r%977) * 0.25),
				engine.NewFloat(float64(r%131) * 0.5),
				engine.NewString(strs[r%len(strs)]),
			}
		}
		if _, err := st.Append("big", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Decoded footprint if this table were resident: per 4096-row
	// segment, three 8-byte columns and one 4-byte code column plus
	// null words — far more than 10x the pool.
	const decodedBytes = nrows * 29
	if decodedBytes < 10*cacheBytes {
		t.Fatalf("fixture too small: %d decoded vs %d cache", decodedBytes, cacheBytes)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	st, err = Open(dir, Options{SyncEvery: 256, Logf: quiet, MaxResidentBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.Eng().Table("big")
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range []string{
		"SELECT s, sum(v) AS a, count(*) AS n FROM big GROUP BY s",
		"SELECT s, avg(w) AS a FROM big WHERE v >= 1 GROUP BY s",
		"SELECT s, max(v) AS m FROM big GROUP BY s",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.RunOn(tbl, stmt)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Table.NumRows() != len(strs) {
			t.Fatalf("query %d: %d groups, want %d", i, res.Table.NumRows(), len(strs))
		}
	}

	stats := st.Stats()
	if stats.Pool == nil {
		t.Fatal("no pool stats")
	}
	if stats.Pool.UsedBytes > cacheBytes {
		t.Fatalf("pool over budget at quiesce: %+v", *stats.Pool)
	}
	if stats.Pool.Pinned != 0 {
		t.Fatalf("%d chunks pinned at quiesce", stats.Pool.Pinned)
	}
	if stats.Pool.Evictions == 0 || stats.Pool.Misses == 0 {
		t.Fatalf("scan over a 10x-cache table never thrashed the pool: %+v", *stats.Pool)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > decodedBytes/2 {
		t.Fatalf("heap grew %d bytes serving a %d-byte table through a %d-byte pool — not out-of-core",
			growth, decodedBytes, cacheBytes)
	}
	t.Log(fmt.Sprintf("heap growth %d bytes for %d decoded bytes behind a %d-byte pool (pool: %+v)",
		growth, decodedBytes, cacheBytes, *stats.Pool))
}

// TestResidentOpenHeapPerCell is the resident half of the memory guard:
// a store of three 64Ki-row segments opened with MaxResidentBytes == 0
// holds every sealed cell as a typed chunk — 8 bytes and a NULL bit for
// a number, a 4-byte code for a string — so the heap it keeps after Open
// and a GC is a few bytes a cell, where a boxed engine.Value is 40. The
// memcap CI job runs it under GOMEMLIMIT with the rest of the package.
func TestResidentOpenHeapPerCell(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}
	const nrows = 3<<engine.DefaultSegmentBits + 1000
	schema := engine.NewSchema("k", engine.TInt, "v", engine.TFloat, "w", engine.TFloat, "s", engine.TString)

	st, err := Open(dir, Options{DisableWAL: true, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("big", schema, engine.DefaultSegmentBits); err != nil {
		t.Fatal(err)
	}
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for lo := 0; lo < nrows; lo += 8192 {
		rows := make([][]engine.Value, min(8192, nrows-lo))
		for i := range rows {
			r := lo + i
			rows[i] = []engine.Value{
				engine.NewInt(int64(r)),
				engine.NewFloat(float64(r%977) * 0.25),
				engine.NewFloat(float64(r%131) * 0.5),
				engine.NewString(strs[r%len(strs)]),
			}
		}
		if _, err := st.Append("big", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = nil

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err = Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)

	tbl, err := st.Eng().Table("big")
	if err != nil {
		t.Fatal(err)
	}
	if sealed, _ := tbl.NumSegments(); sealed != 3 || tbl.SegmentFaultable(0) {
		t.Fatalf("%d sealed segments, faultable %v: not the resident open of the fixture", sealed, tbl.SegmentFaultable(0))
	}
	cells := int64(3<<engine.DefaultSegmentBits) * int64(len(schema))
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(cells)
	if _, held := tbl.MemStats(); perCell > 12 || float64(held)/float64(cells) > 12 {
		t.Fatalf("resident open keeps %.1f heap bytes a cell (MemStats: %.1f), want at most 12", perCell, float64(held)/float64(cells))
	}
	t.Logf("resident open: %.2f heap bytes a sealed cell", perCell)
}

// TestAppendedTailHeapPerCell is the tail's twin of the guard above: the
// 100k-row Intel table appended in 1,000-row batches — one sealed
// segment and a 34k-row tail, the shape every in-memory session serves —
// keeps its newest rows as typed chunks too, so the heap behind the
// table is a few bytes a cell, not a boxed engine.Value's 40.
func TestAppendedTailHeapPerCell(t *testing.T) {
	src, _ := datasets.Intel(datasets.IntelConfig{Rows: 100_000})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl := engine.MustNewTable("readings", src.Schema())
	for lo := 0; lo < src.NumRows(); lo += 1000 {
		rows := make([][]engine.Value, 1000)
		for i := range rows {
			rows[i] = src.Row(lo + i)
		}
		var err error
		if tbl, err = tbl.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if sealed, tail := tbl.NumSegments(); sealed != 1 || tail != 100_000-1<<engine.DefaultSegmentBits {
		t.Fatalf("%d sealed segments and %d tail rows: not the session's table", sealed, tail)
	}
	cells := float64(tbl.NumRows() * tbl.NumCols())
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / cells
	if _, held := tbl.MemStats(); perCell > 12 || float64(held)/cells > 12 {
		t.Fatalf("the appended table keeps %.1f heap bytes a cell (MemStats: %.1f), want at most 12", perCell, float64(held)/cells)
	}
	t.Logf("appended table: %.2f heap bytes a cell", perCell)
	runtime.KeepAlive(src)
}
