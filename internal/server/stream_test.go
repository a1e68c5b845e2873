package server

import (
	"bytes"
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
	srv.maxSessions, srv.sessionTTL = 3, time.Hour
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
