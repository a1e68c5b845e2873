package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datasets"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func TestIndexServesDashboard(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "DBWipes") {
		t.Error("dashboard HTML missing")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type: %s", ct)
	}
}

func TestTablesAndMetricsEndpoints(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tables map[string][]struct {
		Name, Type string
	}
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	if _, ok := tables["donations"]; !ok {
		t.Errorf("tables: %v", tables)
	}

	resp2, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var metrics []struct{ Name string }
	if err := json.NewDecoder(resp2.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) < 4 {
		t.Errorf("metrics: %d", len(metrics))
	}
}

// fullLoop drives query → zoom → debug → clean, the paper's demo loop.
func TestFullInteractiveLoop(t *testing.T) {
	ts := testServer(t)

	// 1. Query.
	var q struct {
		SQL     string   `json:"sql"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		AggCols []int    `json:"aggCols"`
	}
	resp := post(t, ts, "/api/query", map[string]any{
		"sql": datasets.FECDailySQL("McCain"),
	}, &q)
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if len(q.Rows) == 0 || len(q.Columns) != 2 {
		t.Fatalf("query payload: %d rows, %v", len(q.Rows), q.Columns)
	}

	// 2. Select negative days as S.
	var suspect []int
	for i, row := range q.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			suspect = append(suspect, i)
		}
	}
	if len(suspect) == 0 {
		t.Fatal("no negative days in payload")
	}

	// 3. Zoom.
	var z struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	post(t, ts, "/api/zoom", map[string]any{"suspect": suspect, "limit": 50}, &z)
	if len(z.Rows) == 0 || z.Columns[0] != "_rowid" {
		t.Fatalf("zoom payload: %v", z.Columns)
	}

	// 4. Debug.
	var d struct {
		Eps          float64 `json:"eps"`
		LineageSize  int     `json:"lineageSize"`
		Explanations []struct {
			Predicate  string  `json:"predicate"`
			Score      float64 `json:"score"`
			CleanedSQL string  `json:"cleanedSql"`
		} `json:"explanations"`
	}
	post(t, ts, "/api/debug", map[string]any{
		"suspect":      suspect,
		"aggItem":      -1,
		"metric":       "toolow",
		"metricParams": map[string]float64{"c": 0},
		"examplesCond": "amount < 0",
	}, &d)
	if d.Eps <= 0 || d.LineageSize == 0 {
		t.Fatalf("debug: eps=%v lineage=%d", d.Eps, d.LineageSize)
	}
	if len(d.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	foundMemo := false
	for _, e := range d.Explanations {
		if strings.Contains(e.Predicate, "memo") {
			foundMemo = true
		}
		if e.CleanedSQL == "" {
			t.Error("cleanedSql missing")
		}
	}
	if !foundMemo {
		t.Errorf("no memo predicate: %+v", d.Explanations)
	}

	// 5. Clean with the top predicate; the query re-runs.
	idx := 0
	var c struct {
		SQL     string   `json:"sql"`
		Rows    [][]any  `json:"rows"`
		Applied []string `json:"applied"`
	}
	post(t, ts, "/api/clean", map[string]any{"explanation": &idx}, &c)
	if len(c.Applied) != 1 {
		t.Fatalf("applied: %v", c.Applied)
	}
	// Negative mass should drop substantially.
	negBefore, negAfter := 0.0, 0.0
	for _, row := range q.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			negBefore += -tot
		}
	}
	for _, row := range c.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			negAfter += -tot
		}
	}
	if negAfter > 0.5*negBefore {
		t.Errorf("cleaning ineffective: before=%.0f after=%.0f", negBefore, negAfter)
	}

	// 6. Reset restores the original result.
	var r struct {
		Applied []string `json:"applied"`
		Rows    [][]any  `json:"rows"`
	}
	post(t, ts, "/api/reset", map[string]any{}, &r)
	if len(r.Applied) != 0 {
		t.Errorf("reset left applied: %v", r.Applied)
	}
	if len(r.Rows) != len(q.Rows) {
		t.Errorf("reset rows %d, want %d", len(r.Rows), len(q.Rows))
	}
}

func TestErrorPaths(t *testing.T) {
	ts := testServer(t)
	// Zoom before query.
	resp := post(t, ts, "/api/zoom", map[string]any{"suspect": []int{0}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zoom without query: %d", resp.StatusCode)
	}
	// Bad SQL.
	resp = post(t, ts, "/api/query", map[string]any{"sql": "SELEC nope"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sql: %d", resp.StatusCode)
	}
	// Unknown FROM table: exec.Run takes the table it is handed, so the
	// server's lookup is what refuses it.
	resp = post(t, ts, "/api/query", map[string]any{"sql": "SELECT sum(amount) FROM nosuch"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown table: %d", resp.StatusCode)
	}
	// Clean before debug.
	idx := 0
	resp = post(t, ts, "/api/clean", map[string]any{"explanation": &idx}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("clean before debug: %d", resp.StatusCode)
	}
	// Unknown metric.
	post(t, ts, "/api/query", map[string]any{"sql": datasets.FECDailySQL("McCain")}, nil)
	resp = post(t, ts, "/api/debug", map[string]any{
		"suspect": []int{0}, "metric": "nosuch",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown metric: %d", resp.StatusCode)
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	ts := testServer(t)
	post(t, ts, "/api/query", map[string]any{
		"session": "a", "sql": datasets.FECDailySQL("McCain"),
	}, nil)
	// Session b has no query yet: zoom must fail for b, succeed for a.
	respB := post(t, ts, "/api/zoom", map[string]any{"session": "b", "suspect": []int{0}}, nil)
	if respB.StatusCode != http.StatusBadRequest {
		t.Errorf("session b zoom: %d", respB.StatusCode)
	}
	respA := post(t, ts, "/api/zoom", map[string]any{"session": "a", "suspect": []int{0}}, nil)
	if respA.StatusCode != 200 {
		t.Errorf("session a zoom: %d", respA.StatusCode)
	}
}

// TestSuggestAggItemAsDebug: /api/suggest reads aggItem as /api/debug
// does. It used to summarize any column index it was given, so a group
// key answered a "median" of day numbers or of string cells where debug
// answered 400.
func TestSuggestAggItemAsDebug(t *testing.T) {
	ts := testServer(t)
	suggest := func(item int) (int, map[string]any) {
		t.Helper()
		status, body := postBody(t, ts, "/api/suggest", map[string]any{"suspect": []int{0}, "aggItem": item})
		var p map[string]any
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("suggest aggItem %d: %v in %q", item, err, body)
		}
		return status, p
	}
	for _, c := range []struct {
		sql     string
		agg     int   // the aggregate's select item
		refused []int // items both endpoints refuse
	}{
		{"SELECT day, candidate, sum(amount) AS total FROM donations GROUP BY day, candidate", 2, []int{1, 3, 99}},
		{"SELECT sum(amount) AS total, day FROM donations GROUP BY day", 0, []int{1, 2}},
	} {
		if resp := post(t, ts, "/api/query", map[string]any{"sql": c.sql}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d", c.sql, resp.StatusCode)
		}
		_, want := suggest(c.agg)
		for _, item := range []int{0, -1} {
			if status, got := suggest(item); status != http.StatusOK || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%q: aggItem %d answered %d %v, want %v", c.sql, item, status, got, want)
			}
		}
		for _, item := range c.refused {
			status, got := suggest(item)
			dstatus, dbody := postBody(t, ts, "/api/debug", map[string]any{
				"suspect": []int{0}, "aggItem": item, "metric": "toohigh", "metricParams": map[string]float64{"c": 0},
			})
			var dbg map[string]any
			_ = json.Unmarshal(dbody, &dbg)
			if status != http.StatusBadRequest || dstatus != http.StatusBadRequest || got["error"] != dbg["error"] {
				t.Errorf("%q: aggItem %d: suggest %d %v, debug %d %v; want the same 400", c.sql, item, status, got, dstatus, dbg)
			}
		}
	}
}

func TestQueryTruncation(t *testing.T) {
	ts := testServer(t)
	var q struct {
		Rows      [][]any `json:"rows"`
		Truncated bool    `json:"truncated"`
	}
	post(t, ts, "/api/query", map[string]any{
		"sql": "SELECT day, amount FROM donations",
	}, &q)
	if !q.Truncated {
		t.Error("large projection should truncate")
	}
	if len(q.Rows) != 5000 {
		t.Errorf("truncated rows: %d", len(q.Rows))
	}
}

func TestSuggestMetric(t *testing.T) {
	ts := testServer(t)
	var q struct {
		Rows [][]any `json:"rows"`
	}
	post(t, ts, "/api/query", map[string]any{"sql": datasets.FECDailySQL("McCain")}, &q)
	var suspect []int
	for i, row := range q.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			suspect = append(suspect, i)
		}
	}
	var sg struct {
		SuggestedC  float64 `json:"suggestedC"`
		Recommended string  `json:"recommended"`
		Metrics     []struct{ Name string }
	}
	post(t, ts, "/api/suggest", map[string]any{"suspect": suspect, "aggItem": -1}, &sg)
	if sg.Recommended != "toolow" {
		t.Errorf("recommended %q for negative-day selection, want toolow", sg.Recommended)
	}
	if sg.SuggestedC <= 0 {
		t.Errorf("suggested c %v: should be the healthy days' median (positive)", sg.SuggestedC)
	}
	if len(sg.Metrics) < 4 {
		t.Errorf("metrics offered: %d", len(sg.Metrics))
	}
	// Suggest before any query errors out.
	ts2 := testServer(t)
	resp := post(t, ts2, "/api/suggest", map[string]any{"suspect": []int{0}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("suggest without query: %d", resp.StatusCode)
	}
}

func TestQueryPayloadIncludesPCA(t *testing.T) {
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 20_000, Seed: 2})
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()
	var q struct {
		Rows         [][]any      `json:"rows"`
		PCA          [][2]float64 `json:"pca"`
		PCAExplained [2]float64   `json:"pcaExplained"`
	}
	post(t, ts, "/api/query", map[string]any{"sql": datasets.IntelWindowSQL}, &q)
	if len(q.PCA) != len(q.Rows) {
		t.Fatalf("pca: %d projections for %d rows", len(q.PCA), len(q.Rows))
	}
	if q.PCAExplained[0] <= 0 {
		t.Errorf("pca explained: %v", q.PCAExplained)
	}
	// Two-column results carry no PCA.
	var q2 struct {
		PCA [][2]float64 `json:"pca"`
	}
	post(t, ts, "/api/query", map[string]any{
		"sql": "SELECT moteid, avg(temperature) FROM readings GROUP BY moteid",
	}, &q2)
	if q2.PCA != nil {
		t.Error("2-column result should not carry PCA")
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts := testServer(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			b, _ := json.Marshal(map[string]any{
				"session": fmt.Sprintf("s%d", i),
				"sql":     datasets.FECDailySQL("Obama"),
			})
			resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent query: %v", err)
		}
	}
}

// TestSessionIDBounded: an over-long session id is refused with 400
// before any session is kept under it; one at the bound still serves.
func TestSessionIDBounded(t *testing.T) {
	ts := testServer(t)
	id := strings.Repeat("s", 1<<20)
	if resp := post(t, ts, "/api/zoom", map[string]any{"session": id, "suspect": []int{0}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1 MiB session id: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sessions []sessionStats `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 0 {
		t.Fatalf("a refused id left %d sessions", len(stats.Sessions))
	}
	if resp := post(t, ts, "/api/query", map[string]any{"session": id[:maxSessionID],
		"sql": "SELECT state, count(*) AS n FROM donations GROUP BY state"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("session id at the bound: status %d", resp.StatusCode)
	}
}

// TestStatsKeyKernels pins /api/stats scan.key_kernels and
// scan.ordered_blocks: the sums of PlanInfo.KeyKernels and
// PlanInfo.OrderedBlocks over executed queries. A numeric computed key is
// one kernel, a string-valued one or a bare column none; the Figure 4
// window query over time-ordered readings splits every one of its blocks
// on the ordered path, the same key over unordered amounts none.
func TestStatsKeyKernels(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	intel, _ := datasets.Intel(datasets.IntelConfig{Rows: 5000, Seed: 1})
	db.Register(intel)
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(ts.Close)
	for _, sql := range []string{
		"SELECT bucket(amount, 100) AS b, count(*) AS n FROM donations GROUP BY bucket(amount, 100)",
		"SELECT lower(state) AS st, count(*) AS n FROM donations GROUP BY lower(state)",
		"SELECT state, count(*) AS n FROM donations GROUP BY state",
		datasets.IntelWindowSQL,
	} {
		if resp := post(t, ts, "/api/query", map[string]any{"session": "kern", "sql": sql}, nil); resp.StatusCode != http.StatusOK {
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
			Queries       int64 `json:"queries"`
			KeyKernels    int64 `json:"key_kernels"`
			OrderedBlocks int64 `json:"ordered_blocks"`
		} `json:"scan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scan.Queries != 4 || stats.Scan.KeyKernels != 2 || stats.Scan.OrderedBlocks != 5 {
		t.Fatalf("scan = %+v, want 4 queries, 2 key kernels and 5 ordered blocks (5000 rows)", stats.Scan)
	}
}

// TestStatsResidualCounters pins the /api/stats planner view of the
// residual filter path: a WHERE mixing a lowerable comparison with a
// LIKE over a computed value must count one residual-filtered query and
// a positive number of per-row residual evaluations, and a global float
// aggregation must ride the masked kernels without inflating either
// counter.
func TestStatsResidualCounters(t *testing.T) {
	ts := testServer(t)
	for _, sql := range []string{
		"SELECT state, sum(amount) AS s FROM donations WHERE amount > 100 AND lower(city) LIKE 'a%' GROUP BY state",
		"SELECT sum(amount) AS s, count(*) AS n FROM donations WHERE amount > 100",
	} {
		resp := post(t, ts, "/api/query", map[string]any{"session": "resid", "sql": sql}, nil)
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
			Queries         int64 `json:"queries"`
			FiltersResidual int64 `json:"filters_residual"`
			ResidualRows    int64 `json:"residual_rows"`
		} `json:"scan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scan.Queries != 2 {
		t.Fatalf("scan.queries = %d, want 2", stats.Scan.Queries)
	}
	if stats.Scan.FiltersResidual != 1 {
		t.Fatalf("filters_residual = %d, want 1 (stats %+v)", stats.Scan.FiltersResidual, stats.Scan)
	}
	if stats.Scan.ResidualRows <= 0 {
		t.Fatalf("residual_rows = %d, want > 0", stats.Scan.ResidualRows)
	}
}
