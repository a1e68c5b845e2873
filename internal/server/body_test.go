package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
)

// postPaths are the POST endpoints, each with a body it answers 200 to
// on a bodyServer.
var postPaths = []struct{ path, body string }{
	{"/api/query", `{"session":"s","sql":"` + bodySQL + `"}`},
	{"/api/suggest", `{"session":"s","suspect":[0],"aggItem":-1}`},
	{"/api/zoom", `{"session":"s","suspect":[0],"limit":10}`},
	{"/api/debug", `{"session":"s","suspect":[0],"aggItem":-1,"metric":"toohigh","metricParams":{"c":0}}`},
	{"/api/clean", `{"session":"s","explanation":0}`},
	{"/api/reset", `{"session":"s"}`},
	{"/api/append", `{"table":"readings","rows":[["2004-03-01T00:00:00Z",9000,1,61.5,40.2,90.1,2.61]]}`},
	{"/api/retention", `{"table":"readings","max_rows":100000}`},
}

const bodySQL = `SELECT moteid, avg(temperature) AS t FROM readings GROUP BY moteid ORDER BY moteid`

var bodyRows = func() *engine.Batch {
	t, _ := datasets.Intel(datasets.IntelConfig{Rows: 3000, Seed: 1})
	return t.Batch(0, t.NumRows())
}()

// bodyServer is a fresh server over a fresh copy of a 3,000-row Intel
// table whose session "s" has queried bodySQL and debugged its first
// group.
func bodyServer(t testing.TB) http.Handler {
	t.Helper()
	tbl, err := engine.MustNewTable("readings", datasets.IntelSchema()).AppendCols(bodyRows, 0, bodyRows.Len())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	h := New(db).Handler()
	for _, p := range []int{0, 3} { // query, debug
		if rec := serve(h, postPaths[p].path, postPaths[p].body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", postPaths[p].path, rec.Code, rec.Body)
		}
	}
	return h
}

// serve POSTs body to path on h.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestTrailingBodyRejected: every POST path decodes exactly one JSON
// value. A second value or trailing bytes after it answer 400 instead of
// being dropped; trailing whitespace is still one value.
func TestTrailingBodyRejected(t *testing.T) {
	for _, p := range postPaths {
		for _, tail := range []string{`{"sql":"SELECT nonsense"}`, ` trailing`, `]`, `0`} {
			t.Run(fmt.Sprintf("%s+%s", p.path, tail), func(t *testing.T) {
				if rec := serve(bodyServer(t), p.path, p.body+tail); rec.Code != http.StatusBadRequest {
					t.Errorf("answered %d, want 400: %.200s", rec.Code, rec.Body)
				}
			})
		}
		t.Run(p.path+"+whitespace", func(t *testing.T) {
			if rec := serve(bodyServer(t), p.path, p.body+" \n\t"); rec.Code != http.StatusOK {
				t.Errorf("answered %d, want 200: %.200s", rec.Code, rec.Body)
			}
		})
	}
}

// FuzzPostBodies sends one fuzzed body to one POST path (which picks it)
// on a fresh bodyServer. No request may panic or answer 5xx, and the
// session must still work afterwards: a query of bodySQL, a debug and a
// zoom on session "s" answer 200.
func FuzzPostBodies(f *testing.F) {
	for i, p := range postPaths {
		f.Add(uint8(i), []byte(p.body))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		h := bodyServer(t)
		p := postPaths[int(which)%len(postPaths)]
		if rec := serve(h, p.path, string(body)); rec.Code >= 500 {
			t.Fatalf("%s answered %d: %s", p.path, rec.Code, rec.Body)
		}
		for _, next := range []int{0, 3, 2} { // query, debug, zoom
			if rec := serve(h, postPaths[next].path, postPaths[next].body); rec.Code != http.StatusOK {
				t.Fatalf("after %s %q: %s answered %d: %s", p.path, body, postPaths[next].path, rec.Code, rec.Body)
			}
		}
	})
}
