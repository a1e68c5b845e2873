package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
)

// segServer builds a server over one minimum-segment table so the
// retention endpoint has segments to drop without megarow fixtures.
func segServer(t *testing.T, rows int) (*httptest.Server, *engine.DB) {
	t.Helper()
	tbl, err := engine.NewTableSeg("m", engine.NewSchema("x", engine.TFloat, "j", engine.TInt), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]engine.Value, rows)
	for i := range batch {
		batch[i] = []engine.Value{engine.NewFloat(float64(i)), engine.NewInt(int64(i % 3))}
	}
	tbl, err = tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(ts.Close)
	return ts, db
}

func TestRetentionEndpoint(t *testing.T) {
	ts, db := segServer(t, 5*64+10)

	var out struct {
		DroppedSegments  int `json:"dropped_segments"`
		DroppedRows      int `json:"dropped_rows"`
		RetainedSegments int `json:"retained_segments"`
		Rows             int `json:"rows"`
		Base             int `json:"base"`
	}
	resp := post(t, ts, "/api/retention", map[string]any{"table": "m", "max_rows": 2 * 64}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retention status %d", resp.StatusCode)
	}
	if out.DroppedSegments != 3 || out.DroppedRows != 3*64 || out.Base != 3*64 {
		t.Fatalf("retention response %+v", out)
	}
	cur, err := db.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Base() != 3*64 || cur.NumRows() != 2*64+10 {
		t.Fatalf("catalog table not republished: base %d rows %d", cur.Base(), cur.NumRows())
	}

	// Policy-free requests are rejected.
	resp = post(t, ts, "/api/retention", map[string]any{"table": "m"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty policy status %d", resp.StatusCode)
	}
	// Unknown tables are rejected.
	resp = post(t, ts, "/api/retention", map[string]any{"table": "nope", "max_rows": 1}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown table status %d", resp.StatusCode)
	}
}

// TestStatsEndpoint pins the storage accounting: per-table and
// per-session retained segment counts and approximate bytes, with a
// session pinning a pre-retention window showing the larger footprint.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := segServer(t, 5*64+10)

	// A session caches a result over the full window.
	post(t, ts, "/api/query", map[string]any{
		"session": "pinner",
		"sql":     "SELECT j, sum(x) AS s FROM m GROUP BY j",
	}, nil)

	// Retain: the catalog table shrinks; the session still pins the old
	// version until its next request.
	post(t, ts, "/api/retention", map[string]any{"table": "m", "max_rows": 2 * 64}, nil)

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Tables map[string]struct {
			Rows     int `json:"rows"`
			Base     int `json:"base"`
			Segments int `json:"segments"`
			Bytes    int `json:"approx_bytes"`
		} `json:"tables"`
		Sessions []struct {
			Session  string `json:"session"`
			Table    string `json:"table"`
			Rows     int    `json:"rows"`
			Base     int    `json:"base"`
			Segments int    `json:"segments"`
			Bytes    int    `json:"approx_bytes"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	mt, ok := stats.Tables["m"]
	if !ok {
		t.Fatalf("table m missing from stats: %+v", stats.Tables)
	}
	if mt.Base != 3*64 || mt.Rows != 2*64+10 || mt.Segments == 0 || mt.Bytes == 0 {
		t.Fatalf("table stats %+v", mt)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Session != "pinner" {
		t.Fatalf("sessions %+v", stats.Sessions)
	}
	ss := stats.Sessions[0]
	if ss.Table != "m" || ss.Base != 0 || ss.Rows != 5*64+10 {
		t.Fatalf("session pins wrong window: %+v", ss)
	}
	if ss.Segments <= mt.Segments || ss.Bytes <= mt.Bytes {
		t.Fatalf("pinned window should be larger than retained table: session %+v vs table %+v", ss, mt)
	}

	// Re-query: the session advances across the horizon and the pinned
	// window is released.
	post(t, ts, "/api/query", map[string]any{
		"session": "pinner",
		"sql":     "SELECT j, sum(x) AS s FROM m GROUP BY j",
	}, nil)
	resp2, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Base != 3*64 {
		t.Fatalf("session did not advance across the horizon: %+v", stats.Sessions)
	}
}

// TestAppendQueryRetentionLoop drives the full streaming loop over the
// HTTP surface: append → re-query (incremental advance) → retention →
// re-query, checking the cached result follows the retained window.
func TestAppendQueryRetentionLoop(t *testing.T) {
	ts, db := segServer(t, 3*64)
	sql := "SELECT j, count(*) AS c FROM m GROUP BY j"
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, nil)

	next := 3 * 64
	for step := 0; step < 4; step++ {
		rows := make([][]any, 64)
		for i := range rows {
			rows[i] = []any{float64(next), float64(next % 3)}
			next++
		}
		resp := post(t, ts, "/api/append", map[string]any{"table": "m", "rows": rows}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d", resp.StatusCode)
		}
		resp = post(t, ts, "/api/retention", map[string]any{"table": "m", "max_rows": 3 * 64}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retention status %d", resp.StatusCode)
		}
		var q struct {
			Rows [][]any `json:"rows"`
		}
		resp = post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, &q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		cur, err := db.Table("m")
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, row := range q.Rows {
			c, ok := row[len(row)-1].(float64)
			if !ok {
				t.Fatalf("unexpected count cell %v", row)
			}
			total += c
		}
		if int(total) != cur.NumRows() {
			t.Fatalf("step %d: counts sum to %v, table has %d rows (%s)", step, total, cur.NumRows(), fmt.Sprintf("base %d", cur.Base()))
		}
	}
}

// TestDebugAfterRetentionRefreshes pins /api/debug across a retention
// pass that dropped more rows than were appended since: the table has
// fewer local rows than the session's result, yet it is a newer
// version, so the debug must explain the table as it is — the appended
// rows in F, the dropped ones gone — as a full Debug (the carried
// analysis never crosses a horizon). A suspect group that lost its
// first row to retention answers 409.
func TestDebugAfterRetentionRefreshes(t *testing.T) {
	ts, db := segServer(t, 5*64+10)
	debug := func(session string, out any) *http.Response {
		return post(t, ts, "/api/debug", map[string]any{
			"session": session, "suspect": []int{0}, "aggItem": -1,
			"metric": "toohigh", "metricParams": map[string]float64{"c": 0},
		}, out)
	}
	appendRows := func(n int) {
		cur, err := db.Table("m")
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]any, n)
		for i := range rows {
			x := cur.Version() + i
			rows[i] = []any{float64(x), float64(x % 3)}
		}
		if resp := post(t, ts, "/api/append", map[string]any{"table": "m", "rows": rows}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d", resp.StatusCode)
		}
	}
	retain := func(maxRows, wantDropped int) {
		var out struct {
			DroppedRows int `json:"dropped_rows"`
		}
		if resp := post(t, ts, "/api/retention", map[string]any{"table": "m", "max_rows": maxRows}, &out); resp.StatusCode != http.StatusOK || out.DroppedRows != wantDropped {
			t.Fatalf("retention status %d dropped %d, want %d", resp.StatusCode, out.DroppedRows, wantDropped)
		}
	}
	type debugResp struct {
		LineageSize int    `json:"lineageSize"`
		Mode        string `json:"mode"`
		Error       string `json:"error"`
	}

	// Suspect 0 is the group of x = 64 (j = 1); WHERE x >= 64 keeps every
	// group clear of the segment retention drops.
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": "SELECT j, sum(x) AS s FROM m WHERE x >= 64 GROUP BY j"}, nil)
	var d1 debugResp
	if resp := debug("s", &d1); resp.StatusCode != http.StatusOK {
		t.Fatalf("first debug: status %d (%s)", resp.StatusCode, d1.Error)
	}
	retain(4*64, 64)
	appendRows(10) // fewer than the 64 dropped
	var d2 debugResp
	if resp := debug("s", &d2); resp.StatusCode != http.StatusOK {
		t.Fatalf("debug after retention: status %d (%s)", resp.StatusCode, d2.Error)
	}
	cur, err := db.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for x := cur.Base(); x < cur.Version(); x++ {
		if x >= 64 && x%3 == 1 {
			want++
		}
	}
	if d2.LineageSize != want || d2.LineageSize == d1.LineageSize {
		t.Fatalf("debug after retention explains %d lineage rows, the retained table has %d (before: %d)", d2.LineageSize, want, d1.LineageSize)
	}
	if d2.Mode != "full" {
		t.Fatalf("debug across a retention horizon ran %q, want a full Debug", d2.Mode)
	}

	// Without the WHERE, every group's first row is in the next dropped
	// segment.
	post(t, ts, "/api/query", map[string]any{"session": "t", "sql": "SELECT j, sum(x) AS s FROM m GROUP BY j"}, nil)
	retain(3*64, 64)
	appendRows(5)
	var d3 debugResp
	if resp := debug("t", &d3); resp.StatusCode != http.StatusConflict {
		t.Fatalf("debug of a group that lost rows: status %d (%+v), want 409", resp.StatusCode, d3)
	}
}
