package chaos

// The deadline storm: many concurrent clients with aggressive timeouts
// and client-side cancellations against a server with tight admission
// limits. The pin is accounting: every request the server saw must be
// classified exactly once (total == completed + shed +
// deadline_exceeded + cancelled per endpoint), all admission slots and
// session locks must come back, and the server must still answer a
// plain query afterwards.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/leakcheck"
	"repro/internal/server"
)

// epStats mirrors the server's per-endpoint counter JSON.
type epStats struct {
	InFlight  int64 `json:"in_flight"`
	Total     int64 `json:"total"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Deadline  int64 `json:"deadline_exceeded"`
	Cancelled int64 `json:"cancelled"`
}

// fetchEndpoints returns the lifecycle counters once the server is
// quiescent. A client that aborted has returned before its handler has:
// the handler notices at its next poll and departs a moment later, so
// the audit waits (bounded) for in-flight to drain — a request that
// never departs still fails it.
func fetchEndpoints(t *testing.T, url string) map[string]epStats {
	t.Helper()
	var out struct {
		Endpoints map[string]epStats `json:"endpoints"`
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(url + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		busy := false
		for name, c := range out.Endpoints {
			busy = busy || (name != "stats" && c.InFlight != 0)
		}
		if !busy || time.Now().After(deadline) {
			return out.Endpoints
		}
	}
}

func postJSON(url, path string, body any, timeout time.Duration, cancelAfter time.Duration) (int, error) {
	b, _ := json.Marshal(body)
	ctx := context.Background()
	if cancelAfter > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cancelAfter)
		defer cancel()
	}
	q := ""
	if timeout > 0 {
		q = "?timeout=" + timeout.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path+q, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	return resp.StatusCode, nil
}

func TestDeadlineStorm(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 40_000, Seed: 3})
	srv := server.New(db)
	srv.SetLimits(server.Limits{
		MaxHeavy:   2,
		MaxQueue:   2,
		RetryAfter: time.Second,
	})
	ts := httptest.NewServer(srv.Handler())

	const sql = "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"
	workers := 16
	perWorker := 8
	if testing.Short() {
		workers, perWorker = 8, 5
	}
	timeouts := []time.Duration{
		1 * time.Nanosecond, // fires before the handler can do anything
		200 * time.Microsecond,
		2 * time.Millisecond,
		0, // class default
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	statusSeen := map[int]int{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 997))
			for i := 0; i < perWorker; i++ {
				timeout := timeouts[rng.Intn(len(timeouts))]
				var cancelAfter time.Duration
				if rng.Float64() < 0.25 {
					// Client-side abort mid-request.
					cancelAfter = time.Duration(100+rng.Intn(3000)) * time.Microsecond
				}
				status, err := postJSON(ts.URL, "/api/query",
					map[string]any{"session": "storm", "sql": sql}, timeout, cancelAfter)
				if err != nil {
					continue // client-side abort; the server classifies it as cancelled
				}
				mu.Lock()
				statusSeen[status]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Quiesce, then audit the books.
	eps := fetchEndpoints(t, ts.URL)
	q := eps["query"]
	t.Logf("storm: statuses %v, query counters %+v", statusSeen, q)
	for name, c := range eps {
		if name == "stats" {
			continue // the stats request observes itself mid-flight
		}
		if c.Total != c.Completed+c.Shed+c.Deadline+c.Cancelled {
			t.Errorf("%s: total %d != completed %d + shed %d + deadline %d + cancelled %d",
				name, c.Total, c.Completed, c.Shed, c.Deadline, c.Cancelled)
		}
		if c.InFlight != 0 {
			t.Errorf("%s: %d in flight after the storm", name, c.InFlight)
		}
	}
	// Every response the clients actually received was counted.
	var delivered int64
	for _, n := range statusSeen {
		delivered += int64(n)
	}
	if q.Total < delivered {
		t.Errorf("query total %d < %d delivered responses", q.Total, delivered)
	}
	// The storm must have actually exercised the deadline path (1ns
	// timeouts guarantee it) and completed some work.
	if q.Deadline == 0 {
		t.Error("no request classified deadline_exceeded under 1ns timeouts")
	}
	if q.Completed == 0 {
		t.Error("no request completed during the storm")
	}

	// The server is still healthy: a plain query succeeds.
	status, err := postJSON(ts.URL, "/api/query", map[string]any{"sql": sql}, 0, 0)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-storm query: status %d err %v", status, err)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if err := leakcheck.Settle(goroutinesBefore, 10*time.Second); err != nil {
		t.Fatalf("goroutine leak after storm: %v", err)
	}
}

// TestStormShedding pins load shedding with one concurrent pair
// instead of raw hammering (which can serialize entirely on a
// contended CI box): a debug request holds the server's only heavy
// slot for tens of milliseconds while a single client fires sequential
// queries. Sequential queries can never overlap each other, so every
// 429 proves the limiter shed against the in-flight debug; rounds
// retry until at least one overlap materializes.
func TestStormShedding(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 40_000, Seed: 4})
	srv := server.New(db)
	srv.SetLimits(server.Limits{MaxHeavy: 1, MaxQueue: -1, RetryAfter: time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const sql = "SELECT memo, avg(amount) AS a FROM donations GROUP BY memo"
	// Seed the blocker session's result so its debug can run.
	if status, err := postJSON(ts.URL, "/api/query",
		map[string]any{"session": "blk", "sql": sql}, 0, 0); err != nil || status != http.StatusOK {
		t.Fatalf("seed query: status %d err %v", status, err)
	}

	// The debug may finish before the burst reaches it (or its POST may
	// fail on a stale pooled connection): retry the round until at least
	// one query provably overlapped the held slot.
	sheds, oks := 0, 0
	for round := 0; round < 10 && sheds == 0; round++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = postJSON(ts.URL, "/api/debug", map[string]any{
				"session": "blk", "suspect": []int{0}, "aggItem": -1,
				"metric": "toohigh", "metricParams": map[string]float64{"c": 0},
			}, 0, 0)
		}()
		// Let the debug reach its handler and claim the slot; firing
		// immediately could shed the *debug* against a burst query.
		time.Sleep(3 * time.Millisecond)
	burst:
		for i := 0; ; i++ {
			select {
			case <-done:
				break burst
			default:
			}
			// Raw requests so the Retry-After header is visible on a shed;
			// a distinct session per query keeps every admitted one a full
			// scan rather than a cached-result advance.
			b, _ := json.Marshal(map[string]any{"session": fmt.Sprintf("shed-%d-%d", round, i), "sql": sql})
			resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			status := resp.StatusCode
			if status == http.StatusTooManyRequests {
				if got := resp.Header.Get("Retry-After"); got != "1" {
					t.Errorf("shed response Retry-After = %q, want \"1\"", got)
				}
			}
			resp.Body.Close()
			switch status {
			case http.StatusTooManyRequests:
				sheds++
			case http.StatusOK:
				oks++ // legal: the debug finished before this one arrived
			default:
				t.Fatalf("query status %d during the hold", status)
			}
		}
	}
	if sheds == 0 {
		t.Fatalf("no query shed while a debug held the only heavy slot (%d snuck through)", oks)
	}

	// A plain query succeeds now that the slot is free.
	if status, err := postJSON(ts.URL, "/api/query", map[string]any{"sql": sql}, 0, 0); err != nil || status != http.StatusOK {
		t.Fatalf("post-hold query: status %d err %v", status, err)
	}
	eps := fetchEndpoints(t, ts.URL)
	q := eps["query"]
	if q.Shed != int64(sheds) {
		t.Fatalf("shed counter %d != %d observed 429s", q.Shed, sheds)
	}
	if q.Total != q.Completed+q.Shed+q.Deadline+q.Cancelled {
		t.Fatalf("query counters unbalanced: %+v", q)
	}
}
