package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// TestStatsOutOfCore pins the /api/stats operator view of out-of-core
// serving: the store section reports buffer-pool occupancy and
// hit/miss/eviction counters, and the scan section reports per-query
// zone-map skip and chunk-fault totals.
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

// TestSegmentUnreadable500 makes a stored segment fail to load after a
// query that never read it, on every endpoint that then reads it. A
// column section that fails its checksum quarantines the file and
// answers a 500 with reason "segment-unreadable", not retryable; a file
// gone from under the reader is an I/O error on an undamaged file, a
// retryable 503 "segment-load-failed" that quarantines nothing. Neither
// is a recovered panic's bare 500 or a bad request's 400.
func TestSegmentUnreadable500(t *testing.T) {
	const victim = "/db/p/seg-00000001.seg"
	for _, tc := range []struct {
		name        string
		damage      func(fs *vfstest.MemFS) error
		status      int
		reason      string
		retryable   bool
		quarantined int
	}{
		{"flipped", func(fs *vfstest.MemFS) error {
			// Column s's section is the file's last, just before its
			// checksum and end magic.
			size, err := fs.FileSize(victim)
			if err != nil {
				return err
			}
			return fs.FlipBit(victim, size-150, 3)
		}, http.StatusInternalServerError, "segment-unreadable", false, 1},
		{"unlinked", func(fs *vfstest.MemFS) error { return fs.Remove(victim) },
			http.StatusServiceUnavailable, "segment-load-failed", true, 0},
	} {
		for path, body := range map[string]map[string]any{
			// Group 1 is k = 100: its lineage is segment 1, every column read.
			"/api/zoom":  {"session": "s", "suspect": []int{1}},
			"/api/query": {"session": "s", "sql": "SELECT s, count(*) AS n FROM p GROUP BY s"},
		} {
			t.Run(tc.name+path, func(t *testing.T) {
				fs := vfstest.NewMemFS()
				st, ts := serveSegments(t, fs, 4, 1<<20)
				if resp := post(t, ts, "/api/query", map[string]any{"session": "s", "sql": "SELECT k, count(*) AS n FROM p GROUP BY k"}, nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("query reading only k: status %d", resp.StatusCode)
				}
				if err := tc.damage(fs); err != nil {
					t.Fatal(err)
				}
				var out struct {
					Error     string `json:"error"`
					Reason    string `json:"reason"`
					Retryable bool   `json:"retryable"`
				}
				resp := post(t, ts, path, body, &out)
				if resp.StatusCode != tc.status || out.Reason != tc.reason || out.Retryable != tc.retryable || out.Error == "" {
					t.Fatalf("status %d, body %+v; want %d %s", resp.StatusCode, out, tc.status, tc.reason)
				}
				if q := st.Stats().Tables["p"].Quarantined; len(q) != tc.quarantined {
					t.Fatalf("quarantined %v, want %d file(s)", q, tc.quarantined)
				}
			})
		}
	}
}

// TestZoomAcrossRetention zooms on a session's cached result after a
// retention pass dropped the group's lineage, on a store-backed server
// reopened with the default (uncapped) pool: the result still points at
// the version from before the pass, which must answer the rows it
// answered before — though the segment file is gone.
func TestZoomAcrossRetention(t *testing.T) {
	const victim = "/db/p/seg-00000001.seg"
	fs := vfstest.NewMemFS()
	_, ts := serveSegments(t, fs, 4, 0)
	if resp := post(t, ts, "/api/query", map[string]any{"session": "s", "sql": "SELECT k, count(*) AS n FROM p GROUP BY k"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	zoom := func() (int, string) {
		t.Helper()
		var out json.RawMessage
		resp := post(t, ts, "/api/zoom", map[string]any{"session": "s", "suspect": []int{1}}, &out)
		return resp.StatusCode, string(out)
	}
	status, before := zoom()
	if status != http.StatusOK {
		t.Fatalf("zoom before retention: status %d: %s", status, before)
	}
	var ret struct {
		Base int `json:"base"`
	}
	if resp := post(t, ts, "/api/retention", map[string]any{"table": "p", "max_rows": 128}, &ret); resp.StatusCode != http.StatusOK || ret.Base < 128 {
		t.Fatalf("retention: status %d, base %d; want segment 1 dropped", resp.StatusCode, ret.Base)
	}
	if _, err := fs.FileSize(victim); err == nil {
		t.Fatalf("%s survived retention", victim)
	}
	if status, after := zoom(); status != http.StatusOK || after != before {
		t.Fatalf("zoom after retention: status %d\n%s\nwant\n%s", status, after, before)
	}
}

// TestLineageBuildLoadFailure injects a read failure while a request
// builds a result's lineage — on first use, from key columns the
// pool no longer holds. /api/zoom and /api/debug answer the retryable
// 503 "segment-load-failed" with Retry-After, not a recovered panic's
// 500; the server stays up, and once reads heal the zoom returns the
// bytes a resident server returns.
func TestLineageBuildLoadFailure(t *testing.T) {
	const sql = "SELECT k, avg(v) AS a FROM p GROUP BY k"
	fs := vfstest.NewMemFS()
	_, ts := serveSegments(t, fs, 4, 256) // a pool smaller than a chunk: every pin reads
	_, resident := serveSegments(t, vfstest.NewMemFS(), 4, 0)
	zoomBody := map[string]any{"session": "s", "suspect": []int{1, 2}}
	zoom := func(ts *httptest.Server) (int, http.Header, []byte) {
		t.Helper()
		b, _ := json.Marshal(zoomBody)
		resp, err := http.Post(ts.URL+"/api/zoom", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}
	query := func(ts *httptest.Server) {
		t.Helper()
		if resp := post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d", resp.StatusCode)
		}
	}
	failed := func(what string, status int, hdr http.Header, body []byte) {
		t.Helper()
		var out struct {
			Reason    string `json:"reason"`
			Retryable bool   `json:"retryable"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v: %s", what, err, body)
		}
		if status != http.StatusServiceUnavailable || out.Reason != "segment-load-failed" || !out.Retryable || hdr.Get("Retry-After") == "" {
			t.Fatalf("%s under the fault: status %d, Retry-After %q, body %s; want 503 segment-load-failed", what, status, hdr.Get("Retry-After"), body)
		}
	}

	query(resident)
	status, _, want := zoom(resident)
	if status != http.StatusOK {
		t.Fatalf("resident zoom: status %d: %s", status, want)
	}
	query(ts)
	fs.FailReadAt(1)
	status, hdr, body := zoom(ts)
	fs.FailReadAt(0)
	failed("zoom", status, hdr, body)
	if status, _, got := zoom(ts); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("zoom after the fault cleared: status %d\n%s\nwant\n%s", status, got, want)
	}

	// A fresh result, then Debug under the fault: its lineage build is the
	// first read.
	query(ts)
	fs.FailReadAt(1)
	var out json.RawMessage
	resp := post(t, ts, "/api/debug", map[string]any{"session": "s", "suspect": []int{1}, "aggItem": 1, "metric": "toohigh", "metricParams": map[string]any{"c": 0}}, &out)
	fs.FailReadAt(0)
	failed("debug", resp.StatusCode, resp.Header, out)
}
