package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// testTable builds a tiny JSON-safe table (no NaN — json.Marshal
// rejects it) for postBatch payloads.
func testTable(n int) *engine.Table {
	t, err := engine.NewTable("p", engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
	})
	if err != nil {
		panic(err)
	}
	rows := make([][]engine.Value, n)
	for r := range rows {
		rows[r] = []engine.Value{engine.NewInt(int64(r % 7)), engine.NewFloat(float64(r) * 0.25)}
	}
	if t, err = t.AppendBatch(rows); err != nil {
		panic(err)
	}
	return t
}

// newPoster returns a poster with sleeps recorded instead of taken.
func newPoster(budget int) (*poster, *[]time.Duration) {
	var slept []time.Duration
	p := &poster{
		budget: budget,
		sleep:  func(d time.Duration) { slept = append(slept, d) },
		logf:   func(string, ...any) {},
		rng:    rand.New(rand.NewSource(1)),
	}
	return p, &slept
}

// TestPosterRetriesShed pins the backoff contract: a server that sheds
// with 429+Retry-After a few times then accepts must see the batch
// exactly once per attempt, every retry delay must respect the
// Retry-After floor, and the call must succeed within budget.
func TestPosterRetriesShed(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	p, slept := newPoster(8)
	tbl := testTable(10)
	if err := p.postBatch(ts.URL, "t", tbl, 0, 10); err != nil {
		t.Fatalf("postBatch: %v", err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4", got)
	}
	if len(*slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(*slept))
	}
	for i, d := range *slept {
		if d < time.Second {
			t.Errorf("retry %d slept %v, under the 1s Retry-After floor", i, d)
		}
	}
}

// TestPosterBackoffGrows pins the exponential-with-jitter shape when no
// Retry-After floor applies: each delay stays within [base<<n / 2,
// 3*(base<<n)/2) and the cap holds.
func TestPosterBackoffGrows(t *testing.T) {
	p, _ := newPoster(0)
	for attempt := 0; attempt < 12; attempt++ {
		base := backoffBase << attempt
		if base > backoffCap || base <= 0 {
			base = backoffCap
		}
		for trial := 0; trial < 32; trial++ {
			d := p.delay(attempt, 0)
			if d < base/2 || d >= base/2+base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, base/2, base/2+base)
			}
		}
	}
}

// TestPosterBudgetExhausted pins that a persistently shedding server
// exhausts the retry budget with an error (not a hang or silent drop):
// budget N means N+1 total attempts.
func TestPosterBudgetExhausted(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"table failed","reason":"fail-stopped","retryable":true}`,
			http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	p, slept := newPoster(3)
	tbl := testTable(5)
	err := p.postBatch(ts.URL, "t", tbl, 0, 5)
	if err == nil || !strings.Contains(err.Error(), "retry budget (3) exhausted") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4 (1 + budget 3)", got)
	}
	if len(*slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(*slept))
	}
}

// TestPosterNoRetryOnClientError pins that non-retryable statuses fail
// immediately: a schema error will not resolve itself, so burning the
// budget on it would only hide the bug.
func TestPosterNoRetryOnClientError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"row 0: want 5 cells"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	p, slept := newPoster(8)
	tbl := testTable(5)
	err := p.postBatch(ts.URL, "t", tbl, 0, 5)
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("err = %v, want immediate status 400 failure", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want exactly 1", got)
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %d times on a non-retryable error", len(*slept))
	}
}

// TestPosterRetriesTransportError pins that a dead server (connection
// refused) is retried like a shed — and that a server coming back up
// mid-budget rescues the batch.
func TestPosterRetriesTransportError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	url := ts.URL
	ts.Close() // now refuses connections

	p, slept := newPoster(2)
	tbl := testTable(5)
	err := p.postBatch(url, "t", tbl, 0, 5)
	if err == nil || !strings.Contains(err.Error(), "retry budget (2) exhausted") {
		t.Fatalf("err = %v, want budget exhaustion on transport errors", err)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
}

// TestFixtureBytesNearTarget: a small -fixture-bytes target is met by
// rounds sized from the bytes still missing, not whole 32,768-row
// rounds: the store directory ends at or above the target and under
// twice it.
func TestFixtureBytesNearTarget(t *testing.T) {
	const target = 200_000
	dir := t.TempDir()
	fixtureStore(dir, "readings", "intel", 1, target)
	size, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if size < target || size >= 2*target {
		t.Fatalf("fixture holds %d bytes on disk, want [%d, %d)", size, target, 2*target)
	}
}
