// Command datagen writes the synthetic demo datasets to CSV, together
// with their ground-truth anomaly labels (one label file row per data
// row: "rowid,anomalous").
//
// Usage:
//
//	datagen -dataset intel -rows 100000 -out readings.csv [-truth truth.csv] [-seed 1]
//	datagen -dataset fec   -rows 150000 -out donations.csv
//
// Streaming driver — the continuous-monitoring scenario. The base rows
// go to -out as usual and the remaining rows are carved into -batches
// append batches of -batch-rows each, either written as numbered CSV
// files next to -out or POSTed to a running dashboard's /api/append
// ingest endpoint (with -interval pacing, simulating live sensors):
//
//	datagen -dataset intel -rows 100000 -batches 20 -batch-rows 1000 -out readings.csv
//	datagen -dataset intel -rows 100000 -batches 20 -batch-rows 1000 -out readings.csv \
//	        -post http://localhost:8080/api/append -table readings -interval 500ms
//
// With -data the rows are instead ingested into a durable segment
// store directory (WAL + sealed segment files) ready for
// `dbwipes -data`:
//
//	datagen -dataset intel -rows 100000 -batches 20 -data ./data -table readings
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/store"
)

func main() {
	dataset := flag.String("dataset", "intel", "intel or fec")
	rows := flag.Int("rows", 100_000, "base row count")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output CSV path (required)")
	truthPath := flag.String("truth", "", "optional ground-truth CSV path")
	batches := flag.Int("batches", 0, "streaming: number of append batches to generate after the base rows")
	batchRows := flag.Int("batch-rows", 1000, "streaming: rows per append batch")
	post := flag.String("post", "", "streaming: POST batches to this /api/append URL instead of writing CSVs")
	table := flag.String("table", "readings", "streaming: table name for -post/-data")
	interval := flag.Duration("interval", 0, "streaming: pause between posted batches")
	retries := flag.Int("retries", 8, "streaming: retry budget per posted batch when the server sheds (429/503)")
	dataPath := flag.String("data", "", "ingest into a durable store directory instead of writing CSVs")
	fixtureBytes := flag.Int64("fixture-bytes", 0, "with -data: ignore -rows and keep appending synthetic rows until the store directory holds at least this many on-disk bytes — bigger-than-cache fixtures for `dbwipes -cache-bytes` out-of-core serving")
	flag.Parse()
	if *out == "" && *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *fixtureBytes > 0 {
		if *dataPath == "" {
			log.Fatal("-fixture-bytes requires -data")
		}
		fixtureStore(*dataPath, *table, *dataset, *seed, *fixtureBytes)
		return
	}

	total := *rows
	if *batches > 0 {
		total += *batches * *batchRows
	}
	var t *engine.Table
	var truth []bool
	switch *dataset {
	case "intel":
		t, truth = datasets.Intel(datasets.IntelConfig{Rows: total, Seed: *seed})
	case "fec":
		t, truth = datasets.FEC(datasets.FECConfig{Rows: total, Seed: *seed})
	default:
		log.Fatalf("unknown dataset %q (want intel or fec)", *dataset)
	}

	if *dataPath != "" {
		ingestStore(*dataPath, *table, t, *rows, *batches, *batchRows)
		if *out == "" {
			return
		}
	}

	base := t
	if *batches > 0 {
		ids := make([]int, *rows)
		for i := range ids {
			ids[i] = i
		}
		base = t.Select(ids)
	}
	if err := engine.SaveCSVFile(*out, base); err != nil {
		log.Fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s (%d rows)\n", *out, base.NumRows())

	p := &poster{budget: *retries, sleep: time.Sleep, logf: log.Printf,
		rng: rand.New(rand.NewSource(*seed))}
	for b := 0; b < *batches; b++ {
		lo := *rows + b**batchRows
		hi := lo + *batchRows
		if *post != "" {
			if err := p.postBatch(*post, *table, t, lo, hi); err != nil {
				log.Fatalf("post batch %d: %v", b, err)
			}
			fmt.Printf("posted batch %d (%d rows) to %s\n", b, hi-lo, *post)
			if *interval > 0 && b < *batches-1 {
				time.Sleep(*interval)
			}
			continue
		}
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		path := fmt.Sprintf("%s.batch%03d.csv", *out, b)
		if err := engine.SaveCSVFile(path, t.Select(ids)); err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, hi-lo)
	}

	if *truthPath != "" {
		f, err := os.Create(*truthPath)
		if err != nil {
			log.Fatalf("create %s: %v", *truthPath, err)
		}
		w := csv.NewWriter(f)
		_ = w.Write([]string{"rowid", "anomalous"})
		n := 0
		for i, l := range truth {
			_ = w.Write([]string{strconv.Itoa(i), strconv.FormatBool(l)})
			if l {
				n++
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			log.Fatalf("write %s: %v", *truthPath, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d anomalous rows)\n", *truthPath, n)
	}
}

// ingestStore writes the base rows and every append batch of t into a
// durable segment store at dir: the WAL-then-ack path dbwipes itself
// uses, so the directory can be handed straight to `dbwipes -data`.
func ingestStore(dir, table string, t *engine.Table, baseRows, batches, batchRows int) {
	st, err := store.Open(dir, store.Options{SyncEvery: 64})
	if err != nil {
		log.Fatalf("open store %s: %v", dir, err)
	}
	if err := st.CreateTable(table, t.Schema(), engine.DefaultSegmentBits); err != nil {
		log.Fatalf("create %s: %v", table, err)
	}
	appendRows(st, table, t, 0, baseRows)
	fmt.Printf("ingested %s base (%d rows) into %s\n", table, baseRows, dir)
	for b := 0; b < batches; b++ {
		lo := baseRows + b*batchRows
		appendRows(st, table, t, lo, lo+batchRows)
		fmt.Printf("ingested batch %d (%d rows)\n", b, batchRows)
	}
	// Close flushes any batched WAL syncs; an error here means the tail
	// may not be on the platter, so it must not exit 0.
	if err := st.Close(); err != nil {
		log.Fatalf("close store: %v", err)
	}
}

// appendRows durably appends rows [lo, hi) of t to table, 8,192 rows to
// an append, each an engine.Batch filled a column at a time from t's
// cells.
func appendRows(st *store.DB, table string, t *engine.Table, lo, hi int) {
	const chunk = 8192
	for ; lo < hi; lo += chunk {
		end := min(lo+chunk, hi)
		b := engine.NewBatch(t.Schema(), end-lo)
		for c := range t.Schema() {
			for r := lo; r < end; r++ {
				_ = b.AppendValue(c, t.Value(r, c)) // a stored cell always fits its column
			}
		}
		if _, err := st.AppendColsCtx(context.Background(), table, b); err != nil {
			log.Fatalf("ingest %s rows [%d,%d): %v", table, lo, end, err)
		}
	}
}

// fixtureStore grows a durable table until the store directory's
// on-disk footprint reaches target bytes, generating dataset rows in
// rounds (a fresh seed per round, so values stay varied). The row
// count is adaptive — encoded bytes per row depend on the dataset — so
// the caller asks for a size, not a count. Meant for out-of-core
// testing: build a fixture ~10x the pool you plan to serve it with.
func fixtureStore(dir, table, dataset string, seed, target int64) {
	st, err := store.Open(dir, store.Options{SyncEvery: 64})
	if err != nil {
		log.Fatalf("open store %s: %v", dir, err)
	}
	const roundRows = 32768
	created := false
	for round := 0; ; round++ {
		size, err := dirBytes(dir)
		if err != nil {
			log.Fatalf("size %s: %v", dir, err)
		}
		if size >= target {
			if err := st.Close(); err != nil {
				log.Fatalf("close store: %v", err)
			}
			fmt.Printf("fixture %s: %d bytes on disk (target %d); serve with dbwipes -data %s -cache-bytes %d for ~10x-cache out-of-core load\n",
				dir, size, target, dir, target/10)
			return
		}
		var t *engine.Table
		switch dataset {
		case "intel":
			t, _ = datasets.Intel(datasets.IntelConfig{Rows: roundRows, Seed: seed + int64(round)})
		case "fec":
			t, _ = datasets.FEC(datasets.FECConfig{Rows: roundRows, Seed: seed + int64(round)})
		default:
			log.Fatalf("unknown dataset %q (want intel or fec)", dataset)
		}
		if !created {
			if err := st.CreateTable(table, t.Schema(), engine.DefaultSegmentBits); err != nil {
				log.Fatalf("create %s: %v", table, err)
			}
			created = true
		}
		appendRows(st, table, t, 0, t.NumRows())
		fmt.Printf("fixture round %d: %d rows appended (%d bytes on disk so far)\n", round, t.NumRows(), size)
	}
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// poster ships append batches to a dashboard with jittered exponential
// backoff: a live server under load sheds ingest with 429 (admission
// queue full) or 503 (store fail-stopped), both carrying a Retry-After
// hint. Those are invitations to come back, not failures — the poster
// honors the hint (using it as the floor for the next delay), doubles a
// jittered base delay on every consecutive shed, and only gives up once
// the retry budget for a batch is spent. Non-retryable statuses (4xx
// schema errors and the like) fail immediately.
type poster struct {
	budget int                 // retries per batch after the first attempt
	sleep  func(time.Duration) // injectable for tests
	logf   func(string, ...any)
	rng    *rand.Rand
}

// backoffBase is the first retry delay; it doubles per consecutive
// shed up to backoffCap, with ±50% jitter so restarted feeders don't
// re-synchronize into thundering herds.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 10 * time.Second
)

// delay computes the jittered exponential delay for the given attempt
// (0-based), floored by the server's Retry-After hint when present.
func (p *poster) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := backoffBase << attempt
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	// Jitter into [d/2, 3d/2): desynchronizes concurrent feeders.
	d = d/2 + time.Duration(p.rng.Int63n(int64(d)))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// retryable reports whether a shed status is worth retrying: 429 means
// the admission queue was full, 503 means the table is fail-stopped or
// the server is otherwise briefly unavailable. Both send Retry-After.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// postBatch ships rows [lo, hi) of t to a dashboard's /api/append
// endpoint as JSON cells (null / bool / number / string; timestamps as
// RFC 3339 strings, which the server parses per column type), retrying
// shed responses under the poster's budget.
func (p *poster) postBatch(url, table string, t *engine.Table, lo, hi int) error {
	rows := make([][]any, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := t.Row(r)
		cells := make([]any, len(row))
		for c, v := range row {
			switch v.T {
			case engine.TNull:
				cells[c] = nil
			case engine.TBool:
				cells[c] = v.Bool()
			case engine.TInt:
				cells[c] = v.I
			case engine.TFloat:
				cells[c] = v.F
			case engine.TTime:
				cells[c] = v.Time().UTC().Format(time.RFC3339)
			default:
				cells[c] = v.S
			}
		}
		rows = append(rows, cells)
	}
	body, err := json.Marshal(map[string]any{"table": table, "rows": rows})
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		status, retryAfter, respBody, err := p.postOnce(url, body)
		if err == nil {
			switch {
			case status == http.StatusOK:
				return nil
			case !retryable(status):
				return fmt.Errorf("status %d: %s", status, respBody)
			}
		}
		if attempt >= p.budget {
			if err != nil {
				return fmt.Errorf("retry budget (%d) exhausted: %w", p.budget, err)
			}
			return fmt.Errorf("retry budget (%d) exhausted: server still shedding with %d: %s",
				p.budget, status, respBody)
		}
		d := p.delay(attempt, retryAfter)
		if err != nil {
			p.logf("post failed (%v); retry %d/%d in %v", err, attempt+1, p.budget, d)
		} else {
			p.logf("server shed with %d (Retry-After %v); retry %d/%d in %v",
				status, retryAfter, attempt+1, p.budget, d)
		}
		p.sleep(d)
	}
}

// postOnce performs a single POST, returning the status, any parsed
// Retry-After hint, and the response body. A transport error
// (connection refused, reset) returns err != nil and is retried like a
// shed — feeders outlive server restarts.
func (p *poster) postOnce(url string, body []byte) (status int, retryAfter time.Duration, respBody string, err error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs >= 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, retryAfter, buf.String(), nil
}
