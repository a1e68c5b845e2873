package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/store"
)

// endpointStats is one endpoint's lifecycle counters in /api/stats.
type endpointStats struct {
	InFlight  int64 `json:"in_flight"`
	Total     int64 `json:"total"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Deadline  int64 `json:"deadline_exceeded"`
	Cancelled int64 `json:"cancelled"`
}

// getStats fetches the per-endpoint lifecycle counters.
func getStats(t *testing.T, ts *httptest.Server) map[string]endpointStats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Endpoints map[string]endpointStats `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Endpoints
}

// checkAccounted asserts the lifecycle invariant on one endpoint's
// counters: every arrival is classified exactly once. The "stats"
// endpoint observes itself mid-request (its own arrival is counted but
// not yet classified in the snapshot it returns), so callers skip it.
func checkAccounted(t *testing.T, name string, c endpointStats) {
	t.Helper()
	if name == "stats" {
		return
	}
	if c.Total != c.Completed+c.Shed+c.Deadline+c.Cancelled {
		t.Errorf("%s: total %d != completed %d + shed %d + deadline %d + cancelled %d",
			name, c.Total, c.Completed, c.Shed, c.Deadline, c.Cancelled)
	}
	if c.InFlight != 0 {
		t.Errorf("%s: %d requests still in flight at quiescence", name, c.InFlight)
	}
}

// TestAppendFailStop503 pins the shedding contract for wedged tables:
// once the store fail-stops a table, /api/append answers 503 with a
// Retry-After hint and a machine-readable reason — the batch was never
// acknowledged, so the client should back off and retry, not drop it.
func TestAppendFailStop503(t *testing.T) {
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem)
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: ffs, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateTable("p", engine.NewSchema("k", engine.TInt, "v", engine.TFloat), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	srv := New(st.Eng())
	srv.AttachStore(st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := map[string]any{"table": "p", "rows": [][]any{{1, 2.5}}}
	if resp := post(t, ts, "/api/append", batch, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy append: status %d", resp.StatusCode)
	}

	// Fail the next mutating filesystem operation (the WAL write): the
	// append that hits it wedges the table.
	ffs.FailAt(1, store.FaultError, rand.New(rand.NewSource(7)))
	for i := 0; i < 2; i++ { // the faulted append, then one against the wedged table
		resp := post(t, ts, "/api/append", batch, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("append %d on fail-stopped table: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("append %d: 503 without Retry-After", i)
		}
		var body struct {
			Error     string `json:"error"`
			Reason    string `json:"reason"`
			Retryable bool   `json:"retryable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Reason != "fail-stopped" || !body.Retryable || body.Error == "" {
			t.Fatalf("append %d: reason JSON %+v", i, body)
		}
	}
	// Reads still serve the last acknowledged version.
	var q struct {
		Rows [][]any `json:"rows"`
	}
	if resp := post(t, ts, "/api/query", map[string]any{"sql": "SELECT k, avg(v) AS a FROM p GROUP BY k"}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after fail-stop: status %d", resp.StatusCode)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("query after fail-stop: %d groups", len(q.Rows))
	}
}

// TestDeadline504 pins ?timeout=: a request whose deadline fires
// mid-execution returns 504 and is classified deadline_exceeded, never
// double-counted.
func TestDeadline504(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts, "/api/query?timeout=1ns",
		map[string]any{"sql": "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns query: status %d, want 504", resp.StatusCode)
	}
	// A healthy query still works (the deadline is per-request).
	if resp := post(t, ts, "/api/query",
		map[string]any{"sql": "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up query: status %d", resp.StatusCode)
	}
	eps := getStats(t, ts)
	q := eps["query"]
	if q.Deadline < 1 || q.Completed < 1 || q.Total != 2 {
		t.Fatalf("query counters %+v", q)
	}
	for name, c := range eps {
		checkAccounted(t, name, c)
	}
}

// TestAdmissionShed429 pins load shedding: with every heavy slot busy
// and no queue, new heavy requests are rejected immediately with 429 +
// Retry-After and counted as shed.
func TestAdmissionShed429(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	srv := New(db)
	srv.SetLimits(Limits{MaxHeavy: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.lc.sem <- struct{}{} // occupy the only heavy slot
	resp := post(t, ts, "/api/query",
		map[string]any{"sql": "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", ra)
	}
	hasStages(t, "429", resp.Header, "admit", "encode")
	<-srv.lc.sem
	if resp := post(t, ts, "/api/query",
		map[string]any{"sql": "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after slot freed: status %d", resp.StatusCode)
	}
	eps := getStats(t, ts)
	q := eps["query"]
	if q.Shed != 1 || q.Completed != 1 || q.Total != 2 {
		t.Fatalf("query counters %+v", q)
	}
	for name, c := range eps {
		checkAccounted(t, name, c)
	}
}

// hasStages fails unless h's Server-Timing header is well formed and
// names every one of stages.
func hasStages(t *testing.T, label string, h http.Header, stages ...string) {
	t.Helper()
	st := h.Get("Server-Timing")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`([a-z]+);dur=\d+\.\d{3}(, |$)`).FindAllStringSubmatch(st, -1) {
		named[m[1]] = true
	}
	for _, s := range stages {
		if !named[s] {
			t.Errorf("%s: Server-Timing %q does not name %s", label, st, s)
		}
	}
}

// TestZoomTimesLineage: the first zoom into a fresh session's result
// builds its provenance, and its Server-Timing names that work lineage,
// not a filter or a scan no query ran. The second zoom reads the built
// value and names none of them.
func TestZoomTimesLineage(t *testing.T) {
	ts := testServer(t)
	post(t, ts, "/api/query", map[string]any{"session": "zoom",
		"sql": "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day"}, nil)
	for i, want := range []bool{true, false} {
		resp := post(t, ts, "/api/zoom", map[string]any{"session": "zoom", "suspect": []int{0, 1}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("zoom %d: status %d", i, resp.StatusCode)
		}
		st := resp.Header.Get("Server-Timing")
		if want {
			hasStages(t, "first zoom", resp.Header, "lineage", "encode")
		} else if strings.Contains(st, "lineage") {
			t.Errorf("zoom %d rebuilt the provenance: %q", i, st)
		}
		if strings.Contains(st, "scan") || strings.Contains(st, "filter") {
			t.Errorf("zoom %d timed a query stage: %q", i, st)
		}
	}
}

// TestServerTiming pins the per-request stage record on the wire: each
// response's Server-Timing header names the stages its request ran — a
// query's pipeline, a debug's five stages, a durable append's WAL write
// — and /api/stats folds every request's record into stages.<endpoint>.
func TestServerTiming(t *testing.T) {
	ts := testServer(t)
	const n = 3
	var q struct {
		Rows [][]any `json:"rows"`
	}
	for i := range n {
		resp := post(t, ts, "/api/query", map[string]any{"session": fmt.Sprint("timing", i),
			"sql": "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day"}, &q)
		hasStages(t, "query", resp.Header, "admit", "lock", "decode", "parse", "filter", "scan", "merge", "materialize", "encode")
	}
	var suspect []int
	for i, row := range q.Rows {
		if tot, ok := row[1].(float64); ok && tot < 0 {
			suspect = append(suspect, i)
		}
	}
	resp := post(t, ts, "/api/debug", map[string]any{"session": fmt.Sprint("timing", n-1), "suspect": suspect,
		"metric": "toolow", "metricParams": map[string]float64{"c": 0}, "examplesCond": "amount < 0"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug: status %d", resp.StatusCode)
	}
	hasStages(t, "debug", resp.Header, "preprocess", "featurize", "enumerate", "predicates", "rank")
	if strings.Contains(resp.Header.Get("Server-Timing"), "parse") {
		t.Errorf("debug over a cached result parsed: %q", resp.Header.Get("Server-Timing"))
	}

	h, body := appendFixture(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/append", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d", rec.Code)
	}
	hasStages(t, "durable append", rec.Header(), "decode", "wal", "fsync", "seal", "encode")

	sresp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	hasStages(t, "stats", sresp.Header, "encode")
	var stats struct {
		Stages map[string]map[string]struct {
			Count int64   `json:"count"`
			Ms    float64 `json:"ms"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if parse := stats.Stages["query"]["parse"]; parse.Count != n || parse.Ms <= 0 {
		t.Fatalf("stages.query.parse = %+v after %d queries", parse, n)
	}
	if rank := stats.Stages["debug"]["rank"]; rank.Count != 1 {
		t.Fatalf("stages.debug.rank = %+v after one debug", rank)
	}
}

// TestSessionLockBounded pins timed lock acquisition: a request whose
// session is held by another in-flight request gives up when its
// deadline fires instead of queueing forever, and /api/stats reports
// the session busy rather than blocking behind it.
func TestSessionLockBounded(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	s := New(db)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sess := s.session("locked")
	sess.lockCh <- struct{}{} // simulate a long-running request holding the session

	resp := post(t, ts, "/api/suggest?timeout=30ms",
		map[string]any{"session": "locked", "suspect": []int{0}}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("request on held session: status %d, want 504", resp.StatusCode)
	}

	var stats struct {
		Sessions []sessionStats `json:"sessions"`
	}
	sresp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stats.Sessions {
		if st.Session == "locked" {
			found = true
			if !st.Busy {
				t.Fatal("held session not reported busy")
			}
		}
	}
	if !found {
		t.Fatal("held session missing from stats")
	}

	<-sess.lockCh // release; the session must be usable again
	if resp := post(t, ts, "/api/query",
		map[string]any{"session": "locked", "sql": "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after lock released: status %d", resp.StatusCode)
	}
}

// TestRetryAfterSeconds pins the Retry-After rendering: the configured
// hint rounds UP to whole seconds with a floor of 1 — the header has no
// sub-second form, and a hint rendered as "0" (or truncated down) would
// invite clients back before the configured backoff elapsed.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		hint time.Duration
		want string
	}{
		{0, "1"},                               // unset: defaulted to 1s
		{-5 * time.Second, "1"},                // nonsense: defaulted
		{time.Millisecond, "1"},                // sub-second clamps up, never "0"
		{400 * time.Millisecond, "1"},          // would round to "0" under Round()
		{999 * time.Millisecond, "1"},          //
		{time.Second, "1"},                     // exact seconds stay exact
		{1400 * time.Millisecond, "2"},         // Round() would understate as "1"
		{1500 * time.Millisecond, "2"},         //
		{2 * time.Second, "2"},                 //
		{2*time.Second + time.Nanosecond, "3"}, // any excess rounds up
		{30 * time.Second, "30"},               //
	}
	for _, tc := range cases {
		lc := &lifecycle{limits: Limits{RetryAfter: tc.hint}.withDefaults()}
		if got := lc.retryAfterSeconds(); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.hint, got, tc.want)
		}
	}
}

// cancelAtPoll is a request context that reports Canceled from its nth
// Err() poll on — a client going away at a chosen failpoint of the
// handler (the chaos package's CancelAfter, which this package cannot
// import).
type cancelAtPoll struct {
	context.Context
	n     int64
	polls atomic.Int64
}

func (c *cancelAtPoll) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestDebugExamplesCancellation pins that evaluating examplesCond
// belongs to the request's lifecycle: a client that goes away while a
// residual condition (LIKE over lower()) is walking a large suspect
// lineage stops the walk at its next poll, is answered 499 and counted
// cancelled — not a 400 that every counter misses — and the session's
// carried analysis is left as it was.
func TestDebugExamplesCancellation(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	srv := New(db)
	// No class deadline: the handler then runs under the request's own
	// context, whose polls this test counts.
	srv.SetLimits(Limits{DebugTimeout: -1})
	h := srv.Handler()
	var suspect []int // every group: the whole table is lineage
	debug := func(ctx context.Context) *httptest.ResponseRecorder {
		body, _ := json.Marshal(map[string]any{
			"session": "s", "suspect": suspect, "aggItem": -1,
			"metric": "toolow", "metricParams": map[string]float64{"c": 0},
			"examplesCond": "lower(memo) LIKE '%spouse%'",
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/debug", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if resp := post(t, ts, "/api/query", map[string]any{"session": "s",
		"sql": "SELECT candidate, sum(amount) AS total FROM donations GROUP BY candidate"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	sess := srv.session("s")
	suspect = sess.res.AllRows()
	if rec := debug(context.Background()); rec.Code != http.StatusOK {
		t.Fatalf("debug: status %d: %s", rec.Code, rec.Body)
	}
	carried := sess.lastDbg
	before := getStats(t, ts)["debug"]

	// The residual walk is the handler's first poller here (the session
	// lock and the admission slot are free, the table did not grow): its
	// first poll passes, its second — 4096 lineage rows in — cancels.
	ctx := &cancelAtPoll{Context: context.Background(), n: 2}
	rec := debug(ctx)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled mid-examples: status %d, want 499: %s", rec.Code, rec.Body)
	}
	// The walk's two polls and the departure classification's two; left
	// to finish, the walk alone would poll 30,000/4096 times.
	if polls := ctx.polls.Load(); polls != 4 {
		t.Fatalf("the handler polled %d times, want 4: the walk did not stop at the cancellation", polls)
	}
	after := getStats(t, ts)["debug"]
	if after.Cancelled != before.Cancelled+1 || after.Completed != before.Completed || after.Deadline != before.Deadline {
		t.Fatalf("debug counters %+v -> %+v, want one more cancelled", before, after)
	}
	checkAccounted(t, "debug", after)
	if sess.lastDbg != carried {
		t.Fatal("a cancelled examples walk replaced the session's carried analysis")
	}
	if rec := debug(context.Background()); rec.Code != http.StatusOK {
		t.Fatalf("debug after the cancellation: status %d: %s", rec.Code, rec.Body)
	}
}
