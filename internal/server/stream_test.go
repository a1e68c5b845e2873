package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
)

// streamDB builds a tiny database with a simple groupable table for the
// ingest tests.
func streamDB(t *testing.T) *engine.DB {
	t.Helper()
	rows := make([][]engine.Value, 200)
	for i := range rows {
		rows[i] = []engine.Value{engine.NewString(fmt.Sprintf("m%d", i%4)), engine.NewFloat(float64(i % 30))}
	}
	tbl, err := engine.MustNewTable("readings", engine.NewSchema("mote", engine.TString, "temp", engine.TFloat)).AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	return db
}

// TestAppendEndpointAndIncrementalRequery walks the streaming loop:
// query, ingest a batch through /api/append, re-query. The second
// result must include the batch, and the server must have advanced the
// cached result incrementally rather than rescanning.
func TestAppendEndpointAndIncrementalRequery(t *testing.T) {
	db := streamDB(t)
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	sql := "SELECT mote, sum(temp) AS total FROM readings GROUP BY mote"
	var q1 struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, &q1)
	if len(q1.Rows) != 4 {
		t.Fatalf("initial groups: %d", len(q1.Rows))
	}

	var ap struct {
		Appended int    `json:"appended"`
		Rows     int    `json:"rows"`
		Error    string `json:"error"`
	}
	resp := post(t, ts, "/api/append", map[string]any{
		"table": "readings",
		"rows": [][]any{
			{"m0", 1000.0},
			{"m9", 5.0}, // brand-new group
			{nil, 3.0},
		},
	}, &ap)
	if resp.StatusCode != 200 || ap.Appended != 3 || ap.Rows != 203 {
		t.Fatalf("append: status=%d %+v", resp.StatusCode, ap)
	}

	var q2 struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, &q2)
	if len(q2.Rows) != 6 { // m0..m3, m9, NULL
		t.Fatalf("groups after append: %d", len(q2.Rows))
	}
	srv.mu.Lock()
	sess := srv.sessions["s"]
	srv.mu.Unlock()
	sess.acquire(context.Background())
	incremental := sess.res.Plan.Incremental
	n := sess.res.Source.NumRows()
	sess.release()
	if !incremental {
		t.Fatal("re-query after append did not take the incremental path")
	}
	if n != 203 {
		t.Fatalf("advanced source has %d rows", n)
	}

	// Bad rows never publish: wrong arity and wrong type both 400.
	if resp := post(t, ts, "/api/append", map[string]any{"table": "readings", "rows": [][]any{{"m0"}}}, nil); resp.StatusCode != 400 {
		t.Fatalf("short row: status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/api/append", map[string]any{"table": "readings", "rows": [][]any{{true, 1.0}}}, nil); resp.StatusCode != 400 {
		t.Fatalf("bad type: status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/api/append", map[string]any{"table": "nope", "rows": [][]any{{"a", 1.0}}}, nil); resp.StatusCode != 404 {
		t.Fatalf("missing table: status %d", resp.StatusCode)
	}
}

// TestConcurrentQueryCleanRace fires /api/query and /api/clean at ONE
// session id concurrently — the race the per-session mutex fixes
// (handleClean's applied append + rollback truncation used to interleave
// with a concurrent query's session writes). Run under -race.
func TestConcurrentQueryCleanRace(t *testing.T) {
	ts := testServer(t)
	sql := datasets.FECDailySQL("McCain")

	// Seed the session: query, then debug so clean has explanations.
	var q struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"session": "race", "sql": sql}, &q)
	var suspect []int
	for i, row := range q.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			suspect = append(suspect, i)
		}
	}
	post(t, ts, "/api/debug", map[string]any{
		"session": "race", "suspect": suspect, "aggItem": -1,
		"metric": "toolow", "metricParams": map[string]float64{"c": 0},
	}, nil)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var body map[string]any
				var path string
				if w%2 == 0 {
					path, body = "/api/query", map[string]any{"session": "race", "sql": sql}
				} else {
					idx := 0
					path, body = "/api/clean", map[string]any{"session": "race", "explanation": &idx}
				}
				b, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				resp.Body.Close()
				// Clean may legitimately 400 once a concurrent query
				// cleared lastDbg; only transport-level failures and 5xx
				// are errors here.
				if resp.StatusCode >= 500 {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDebugAdvanceAfterAppend walks the full monitoring loop over the
// API: query → debug → append → debug. The second debug must see the
// appended rows (the handler refreshes the stale session result
// incrementally) and must advance the carried analysis rather than
// rebuild it.
func TestDebugAdvanceAfterAppend(t *testing.T) {
	db := streamDB(t)
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	sql := "SELECT mote, sum(temp) AS total FROM readings GROUP BY mote"
	var q struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, &q)

	debugReq := map[string]any{
		"session": "s", "suspect": []int{0, 1}, "aggItem": -1,
		"metric": "toohigh", "metricParams": map[string]float64{"c": 100},
	}
	var d1 struct {
		Eps         float64 `json:"eps"`
		LineageSize int     `json:"lineageSize"`
		Incremental bool    `json:"incremental"`
		Mode        string  `json:"mode"`
	}
	if resp := post(t, ts, "/api/debug", debugReq, &d1); resp.StatusCode != 200 {
		t.Fatalf("first debug: status %d", resp.StatusCode)
	}
	if d1.Mode != "full" || d1.Incremental {
		t.Fatalf("first debug plan: %+v", d1)
	}

	// Ingest a batch, then debug again WITHOUT re-querying: the handler
	// must advance the session result and the carried analysis itself.
	rows := make([][]any, 40)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("m%d", i%4), 50.0}
	}
	if resp := post(t, ts, "/api/append", map[string]any{"table": "readings", "rows": rows}, nil); resp.StatusCode != 200 {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	var d2 struct {
		Eps         float64 `json:"eps"`
		LineageSize int     `json:"lineageSize"`
		Incremental bool    `json:"incremental"`
		Mode        string  `json:"mode"`
	}
	if resp := post(t, ts, "/api/debug", debugReq, &d2); resp.StatusCode != 200 {
		t.Fatalf("second debug: status %d", resp.StatusCode)
	}
	if d2.Mode != "carried" || !d2.Incremental {
		t.Fatalf("debug after append did not carry: %+v", d2)
	}
	if d2.LineageSize <= d1.LineageSize {
		t.Fatalf("debug after append is blind to the batch: lineage %d → %d", d1.LineageSize, d2.LineageSize)
	}
	srv.mu.Lock()
	sess := srv.sessions["s"]
	srv.mu.Unlock()
	sess.acquire(context.Background())
	n := sess.res.Source.NumRows()
	sess.release()
	if n != 240 {
		t.Fatalf("session result not refreshed: %d rows", n)
	}
}

// TestDebugSuspectRemapAcrossAppend: the client picks suspects by
// output row index against the result it saw; when an append lands
// before the debug and the refreshed result re-orders (ORDER BY over
// shifted totals), the handler must remap the indexes by group
// identity — the debug answers about the group the client pointed at,
// not whatever now occupies that row number.
func TestDebugSuspectRemapAcrossAppend(t *testing.T) {
	db := streamDB(t)
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	sql := "SELECT mote, sum(temp) AS total FROM readings GROUP BY mote ORDER BY total DESC"
	var q struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"session": "s", "sql": sql}, &q)
	// Suspect the current top row (50 lineage rows), then boost two
	// OTHER motes past it, so after the refresh row 0 is a different,
	// bigger group (80 rows) — a debug without the remap would answer
	// about that one instead.
	suspect := 0
	topMote := q.Rows[0][0].(string)
	var boost []string
	for _, m := range []string{"m0", "m1", "m2", "m3"} {
		if m != topMote && len(boost) < 2 {
			boost = append(boost, m)
		}
	}
	rows := make([][]any, 60)
	for i := range rows {
		rows[i] = []any{boost[i%2], 500.0}
	}
	post(t, ts, "/api/append", map[string]any{"table": "readings", "rows": rows}, nil)

	var d struct {
		LineageSize int    `json:"lineageSize"`
		Incremental bool   `json:"incremental"`
		Error       string `json:"error"`
	}
	resp := post(t, ts, "/api/debug", map[string]any{
		"session": "s", "suspect": []int{suspect}, "aggItem": -1,
		"metric": "toohigh", "metricParams": map[string]float64{"c": 0},
	}, &d)
	if resp.StatusCode != 200 {
		t.Fatalf("debug: status %d (%s)", resp.StatusCode, d.Error)
	}
	if d.LineageSize != 50 {
		t.Fatalf("debugged the wrong group after the refresh: lineage %d, want %s's 50", d.LineageSize, topMote)
	}
}

// TestConcurrentAppendDebugRace fires /api/append and /api/debug at ONE
// session concurrently — the streaming monitoring loop's two halves.
// Appends publish copy-on-write table versions while debugs advance the
// cached result and carried analysis; under -race this pins the
// engine's snapshot isolation and the per-session mutex across the
// whole carry chain. Responses may legitimately be 400 (e.g. a suspect
// index out of range after a re-query) but never 5xx, and the server
// must not deadlock.
func TestConcurrentAppendDebugRace(t *testing.T) {
	db := streamDB(t)
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	sql := "SELECT mote, sum(temp) AS total FROM readings GROUP BY mote"
	post(t, ts, "/api/query", map[string]any{"session": "race", "sql": sql}, nil)

	var wg sync.WaitGroup
	iters := 12
	if testing.Short() {
		iters = 6
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var path string
				var body map[string]any
				switch w % 3 {
				case 0:
					path = "/api/append"
					body = map[string]any{"table": "readings", "rows": [][]any{
						{fmt.Sprintf("m%d", i%5), float64(i)},
						{"m0", 25.5},
					}}
				case 1:
					path = "/api/debug"
					body = map[string]any{
						"session": "race", "suspect": []int{0, 1}, "aggItem": -1,
						"metric": "toohigh", "metricParams": map[string]float64{"c": 100},
					}
				default:
					path = "/api/query"
					body = map[string]any{"session": "race", "sql": sql}
				}
				b, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSessionEviction pins the session-map bounds: LRU count cap and
// idle TTL expiry, with the active session never evicted.
func TestSessionEviction(t *testing.T) {
	db := streamDB(t)
	srv := New(db)
	srv.SetSessionLimits(3, time.Hour)
	now := time.Unix(1_000_000, 0)
	srv.now = func() time.Time { return now }

	for i := 0; i < 10; i++ {
		srv.session(fmt.Sprintf("s%d", i))
		now = now.Add(time.Second)
	}
	srv.mu.Lock()
	n := len(srv.sessions)
	_, hasLast := srv.sessions["s9"]
	_, hasFirst := srv.sessions["s0"]
	srv.mu.Unlock()
	if n > 3 {
		t.Fatalf("session map not bounded: %d entries", n)
	}
	if !hasLast || hasFirst {
		t.Fatalf("LRU evicted wrong sessions (s9=%v s0=%v)", hasLast, hasFirst)
	}

	// TTL: idle sessions expire on the next access.
	now = now.Add(2 * time.Hour)
	srv.session("fresh")
	srv.mu.Lock()
	n = len(srv.sessions)
	_, hasFresh := srv.sessions["fresh"]
	_, hasS9 := srv.sessions["s9"]
	srv.mu.Unlock()
	if !hasFresh || hasS9 || n != 1 {
		t.Fatalf("TTL sweep failed: n=%d fresh=%v s9=%v", n, hasFresh, hasS9)
	}
}
