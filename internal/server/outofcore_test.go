package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// serveSegments writes table p — columns k, v, s; nseg 64-row segments,
// k = 100 × the segment index — to a store on fs, reopens it with a pool
// of cacheBytes, and serves it.
func serveSegments(t *testing.T, fs vfs.FS, nseg int, cacheBytes int64) (*store.DB, *httptest.Server) {
	t.Helper()
	quiet := func(string, ...any) {}
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", engine.NewSchema("k", engine.TInt, "v", engine.TFloat, "s", engine.TString), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	strs := []string{"a", "b", "c"}
	for seg := 0; seg < nseg; seg++ {
		rows := make([][]engine.Value, 64)
		for r := range rows {
			rows[r] = []engine.Value{
				engine.NewInt(int64(seg * 100)),
				engine.NewFloat(float64(r) * 0.5),
				engine.NewString(strs[r%len(strs)]),
			}
		}
		if _, err := st.Append("p", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet, MaxResidentBytes: cacheBytes}); err != nil {
		t.Fatal(err)
	}
	srv := New(st.Eng())
	srv.AttachStore(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return st, ts
}

// A flipped section bit answers 500 segment-unreadable and quarantines
// the file; an unlinked file answers a retryable 503 and quarantines
// nothing. Each subtest damages segment 1 of four after a query that read
// only column k, and reads it through its path.
func TestSegmentUnreadable500(t *testing.T) {
	const victim = "/db/p/seg-00000001.seg"
	for _, kind := range []string{"flipped", "unlinked"} {
		for path, body := range map[string]string{
			"/api/zoom":  `{"session":"s","suspect":[1]}`, // group 1 is k = 100: segment 1, every column
			"/api/query": `{"session":"s","sql":"SELECT s, count(*) AS n FROM p GROUP BY s"}`,
		} {
			t.Run(kind+path, func(t *testing.T) {
				fs := vfstest.NewMemFS()
				st, ts := serveSegments(t, fs, 4, 1<<20)
				if resp := post(t, ts, "/api/query", json.RawMessage(`{"session":"s","sql":"SELECT k, count(*) AS n FROM p GROUP BY k"}`), nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("query reading only k: status %d", resp.StatusCode)
				}
				status, reason, quarantined := http.StatusServiceUnavailable, "segment-load-failed", 0
				if kind == "unlinked" {
					must(0, fs.Remove(victim))
				} else { // column s's section is the file's last, before its checksum and end magic
					status, reason, quarantined = http.StatusInternalServerError, "segment-unreadable", 1
					must(0, fs.FlipBit(victim, must(fs.FileSize(victim))-150, 3))
				}
				var out struct {
					Error, Reason string
					Retryable     bool
				}
				resp := post(t, ts, path, json.RawMessage(body), &out)
				if q := st.Stats().Tables["p"].Quarantined; resp.StatusCode != status || out.Reason != reason || out.Retryable != (quarantined == 0) || out.Error == "" || len(q) != quarantined {
					t.Fatalf("status %d, body %+v, quarantined %v; want %d %s", resp.StatusCode, out, q, status, reason)
				}
			})
		}
	}
}

// TestStatsOutOfCore pins the /api/stats operator view of out-of-core
// serving: the store section reports buffer-pool occupancy and
// hit/miss/eviction counters, and the scan section reports per-query
// zone-map skip and chunk-fault totals.
func TestStatsOutOfCore(t *testing.T) {
	// Reopen with a pool far smaller than the table.
	st, ts := serveSegments(t, vfstest.NewMemFS(), 8, 4096)

	// A full scan (faults chunks) and a zone-prunable point query
	// (skips segments).
	for _, sql := range []string{
		"SELECT s, sum(v) AS total FROM p GROUP BY s",
		"SELECT s, count(*) AS n FROM p WHERE k = 300 GROUP BY s",
	} {
		resp := post(t, ts, "/api/query", map[string]any{"session": "ooc", "sql": sql}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d", sql, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Scan struct {
			Queries        int64 `json:"queries"`
			SegsSkipped    int64 `json:"segs_skipped"`
			ChunksFaulted  int64 `json:"chunks_faulted"`
			ChunksResident int64 `json:"chunks_resident"`
		} `json:"scan"`
		Store struct {
			Pool *store.PoolStats `json:"pool"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scan.Queries != 2 {
		t.Fatalf("scan.queries = %d, want 2", stats.Scan.Queries)
	}
	if stats.Scan.ChunksFaulted == 0 {
		t.Fatalf("full scan over out-of-core table faulted no chunks: %+v", stats.Scan)
	}
	if stats.Scan.SegsSkipped == 0 {
		t.Fatalf("zone-prunable point query skipped no segments: %+v", stats.Scan)
	}
	if stats.Store.Pool == nil {
		t.Fatal("store stats missing pool section")
	}
	if stats.Store.Pool.MaxBytes != 4096 || stats.Store.Pool.Misses == 0 {
		t.Fatalf("pool stats %+v", *stats.Store.Pool)
	}
	if stats.Store.Pool.Pinned != 0 {
		t.Fatalf("%d chunks still pinned at quiesce: %+v", stats.Store.Pool.Pinned, *stats.Store.Pool)
	}
	if n := st.PoolPinned(); n != 0 {
		t.Fatalf("PoolPinned = %d", n)
	}
}
