package chaos

// The chaos soak: concurrent ingest, querying, debugging and retention
// against one durable table, with a filesystem fault injected mid-run
// (wedging the table into fail-stop) and a steady drizzle of
// client-side cancellations and tight deadlines. Pins, in order of
// importance:
//
//  1. post-chaos queries through the soaked server — whose sessions
//     advanced incrementally across appends, retention and cancelled
//     requests — are bit-identical to a fresh server's from-scratch
//     run over the same published table;
//  2. no goroutine leaks once the clients stop;
//  3. the lifecycle counters account for every request;
//  4. memory stays bounded (no unbounded buildup of half-cancelled
//     state).

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

func TestChaosSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	quiet := func(string, ...any) {}
	mem := vfstest.NewMemFS()

	// Seed the stream durably first, then reopen OUT-OF-CORE with a
	// pool far smaller than the seeded segments: every scan during the
	// soak faults chunks through the buffer pool while cancellations
	// and deadlines fire, so a pin leaked on any abort path surfaces at
	// the quiesce check below.
	seedRng := rand.New(rand.NewSource(5))
	seedSt, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedSt.CreateTable("stream", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	seed := make([][]engine.Value, 2000)
	for i := range seed {
		seed[i] = testgen.EngRow(testgen.JSONRow(seedRng))
	}
	if _, err := seedSt.Append("stream", seed); err != nil {
		t.Fatal(err)
	}
	if err := seedSt.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: quiet, MaxResidentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st.Eng())
	srv.AttachStore(st)
	srv.SetLimits(server.Limits{
		MaxHeavy:   3,
		MaxQueue:   4,
		RetryAfter: time.Second,
	})
	ts := httptest.NewServer(srv.Handler())

	const sql = "SELECT j, avg(f) AS a, count(*) AS n FROM stream GROUP BY j"
	duration := 2 * time.Second
	if testing.Short() {
		duration = 600 * time.Millisecond
	}
	stop := time.After(duration)
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
	}()

	// Wedge the table partway through: some later mutating filesystem
	// operation fails, the store fail-stops, and every append/retention
	// after that must shed with 503 while queries keep serving.
	go func() {
		time.Sleep(duration / 2)
		mem.FailAt(1, rand.New(rand.NewSource(99)))
	}()

	var wg sync.WaitGroup
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// Ingest workers: append batches, honoring shed responses by
	// pausing briefly (the real client's backoff is exercised separately
	// in cmd/datagen).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*71 + 1))
			for !stopped() {
				status, err := postJSON(ts.URL, "/api/append",
					map[string]any{"table": "stream", "rows": testgen.JSONBatch(rng, 50+rng.Intn(200))},
					0, 0)
				if err == nil && status == http.StatusServiceUnavailable {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	// Query workers: sticky sessions so results advance incrementally
	// across appends; tight timeouts and client aborts land
	// cancellations at arbitrary points of the scan.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*131 + 7))
			session := string(rune('a' + w))
			for !stopped() {
				var timeout, cancelAfter time.Duration
				if rng.Float64() < 0.3 {
					timeout = time.Duration(1+rng.Intn(3000)) * time.Microsecond
				}
				if rng.Float64() < 0.2 {
					cancelAfter = time.Duration(100+rng.Intn(2000)) * time.Microsecond
				}
				_, _ = postJSON(ts.URL, "/api/query",
					map[string]any{"session": session, "sql": sql}, timeout, cancelAfter)
			}
		}(w)
	}
	// Debug worker: query then debug on its own session, sometimes
	// cancelled mid-analysis.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		for !stopped() {
			if status, err := postJSON(ts.URL, "/api/query",
				map[string]any{"session": "dbg", "sql": sql}, 0, 0); err != nil || status != http.StatusOK {
				continue
			}
			var cancelAfter time.Duration
			if rng.Float64() < 0.4 {
				cancelAfter = time.Duration(200+rng.Intn(4000)) * time.Microsecond
			}
			_, _ = postJSON(ts.URL, "/api/debug", map[string]any{
				"session": "dbg", "suspect": []int{0}, "aggItem": -1,
				"metric": "toohigh", "metricParams": map[string]float64{"c": 0},
			}, 0, cancelAfter)
		}
	}()
	// Retention worker: periodically trims the table, racing appends
	// and the carried sessions' advances.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			time.Sleep(50 * time.Millisecond)
			_, _ = postJSON(ts.URL, "/api/retention",
				map[string]any{"table": "stream", "max_rows": 4000}, 0, 0)
		}
	}()

	wg.Wait()

	// Pin 3: the books balance for every endpoint.
	eps := fetchEndpoints(t, ts.URL)
	for name, c := range eps {
		if name == "stats" {
			continue
		}
		if c.Total != c.Completed+c.Shed+c.Deadline+c.Cancelled {
			t.Errorf("%s: total %d != completed %d + shed %d + deadline %d + cancelled %d",
				name, c.Total, c.Completed, c.Shed, c.Deadline, c.Cancelled)
		}
		if c.InFlight != 0 {
			t.Errorf("%s: %d in flight after the soak", name, c.InFlight)
		}
	}
	t.Logf("soak counters: query %+v append %+v debug %+v retention %+v",
		eps["query"], eps["append"], eps["debug"], eps["retention"])

	// Pin 1: a soaked session's re-query is bit-identical to a fresh
	// server's from-scratch run over the same published table. The
	// soaked sessions advanced through appends, retention rebases and
	// cancelled attempts; any half-published state shows up here.
	type payload struct {
		Rows [][]any `json:"rows"`
	}
	query := func(url, session string) payload {
		t.Helper()
		b, _ := json.Marshal(map[string]any{"session": session, "sql": sql})
		resp, err := http.Post(url+"/api/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("final query on %s: status %d", session, resp.StatusCode)
		}
		var p payload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fresh := server.New(st.Eng())
	fts := httptest.NewServer(fresh.Handler())
	oracle := query(fts.URL, "oracle")
	for _, session := range []string{"a", "b", "c", "dbg"} {
		got := query(ts.URL, session)
		if !reflect.DeepEqual(oracle.Rows, got.Rows) {
			t.Errorf("session %s diverged from the from-scratch oracle:\noracle: %v\ngot:    %v",
				session, oracle.Rows, got.Rows)
		}
	}
	fts.Close()
	ts.Close()

	// Out-of-core quiesce invariant: with every request drained, no
	// chunk may remain pinned — a query cancelled mid-fault that leaked
	// a pin shows up here as a chunk the pool can never evict — and the
	// soak must actually have exercised the fault path.
	if n := st.PoolPinned(); n != 0 {
		t.Errorf("%d chunks still pinned at quiesce", n)
	}
	if ps := st.Stats().Pool; ps == nil {
		t.Error("out-of-core soak reports no pool stats")
	} else if ps.Misses == 0 {
		t.Errorf("soak never faulted a chunk: %+v", *ps)
	}

	if err := st.Close(); err != nil {
		t.Logf("store close after fail-stop: %v", err) // expected when wedged
	}

	// Pin 2: every worker, scan helper and admission slot came back.
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if err := leakcheck.Settle(goroutinesBefore, 10*time.Second); err != nil {
		t.Fatalf("goroutine leak after soak: %v", err)
	}

	// Pin 4: memory is bounded — generous ceiling, only meant to catch
	// runaway accumulation of cancelled half-state.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1<<30 {
		t.Fatalf("heap after soak: %d bytes", ms.HeapAlloc)
	}
}
