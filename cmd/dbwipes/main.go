// Command dbwipes serves the DBWipes dashboard over the demo datasets
// (synthetic Intel Lab sensor readings and FEC campaign donations), or
// over any CSV the user supplies.
//
// Usage:
//
//	dbwipes [-addr :8080] [-intel-rows 100000] [-fec-rows 150000]
//	        [-csv table=path.csv ...] [-seed 1]
//	        [-data dir] [-sync-every 64]
//
// With -data, tables live in a durable segment store under the given
// directory: demo and CSV tables are ingested through the WAL on first
// start, recovered from disk (checksummed, with quarantine on
// corruption) on every restart, and /api/append writes are
// acknowledged only after they are logged. Without -data everything
// stays in RAM as before.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

type csvFlags []string

func (c *csvFlags) String() string { return strings.Join(*c, ",") }
func (c *csvFlags) Set(s string) error {
	*c = append(*c, s)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	intelRows := flag.Int("intel-rows", 100_000, "synthetic Intel sensor rows (0 to skip)")
	fecRows := flag.Int("fec-rows", 150_000, "synthetic FEC donation rows (0 to skip)")
	seed := flag.Int64("seed", 1, "generator seed")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory only)")
	syncEvery := flag.Int("sync-every", 1, "with -data: fsync the WAL every N append batches")
	cacheBytes := flag.Int64("cache-bytes", 0, "with -data: cap the buffer pool that serves stored segments at about this many bytes (0 = no cap)")
	queryTimeout := flag.Duration("query-timeout", 0, "default deadline for query-class requests (0 = built-in default, negative = none)")
	debugTimeout := flag.Duration("debug-timeout", 0, "default deadline for /api/debug (0 = built-in default, negative = none)")
	maxHeavy := flag.Int("max-heavy", 0, "concurrent heavy operations (query/debug); 0 = built-in default")
	maxQueue := flag.Int("max-queue", 0, "heavy requests queued beyond -max-heavy before shedding with 429; 0 = built-in default, negative = no queue")
	var csvs csvFlags
	flag.Var(&csvs, "csv", "extra table as name=path.csv (repeatable)")
	flag.Parse()

	var st *store.DB
	var db *engine.DB
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{SyncEvery: *syncEvery, MaxResidentBytes: *cacheBytes})
		if err != nil {
			log.Fatalf("open store %s: %v", *dataDir, err)
		}
		db = st.Eng()
		for name, ts := range st.Stats().Tables {
			log.Printf("recovered %s: %d sealed segments on disk (quarantined: %d, gap: %d segments)",
				name, ts.SealedOnDisk, len(ts.Quarantined), ts.GapSegments)
		}
	} else {
		db = engine.NewDB()
	}

	load := func(t *engine.Table) {
		if ingestDurable(st, db, t) {
			log.Printf("loaded %s (durable)", t)
		} else {
			log.Printf("loaded %s", t)
		}
	}
	have := func(name string) bool {
		_, err := db.Table(name)
		return err == nil
	}
	// A table recovered from -data is served as stored, not generated
	// again and thrown away.
	if *intelRows > 0 && !have("readings") {
		t, _ := datasets.Intel(datasets.IntelConfig{Rows: *intelRows, Seed: *seed})
		load(t)
	}
	if *fecRows > 0 && !have("donations") {
		t, _ := datasets.FEC(datasets.FECConfig{Rows: *fecRows, Seed: *seed})
		load(t)
	}
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("bad -csv %q, want name=path.csv", spec)
		}
		if have(name) {
			log.Printf("table %s already recovered from %s, skipping %s", name, *dataDir, path)
			continue
		}
		t, err := engine.LoadCSVFile(path, name)
		if err != nil {
			log.Fatalf("load %s: %v", path, err)
		}
		load(t)
	}
	if len(db.Names()) == 0 {
		log.Fatal("no tables loaded")
	}

	srv := server.New(db)
	if st != nil {
		srv.AttachStore(st)
	}
	srv.SetLimits(server.Limits{
		QueryTimeout: *queryTimeout,
		DebugTimeout: *debugTimeout,
		MaxHeavy:     *maxHeavy,
		MaxQueue:     *maxQueue,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("DBWipes listening on %s (tables: %s)\n", *addr, strings.Join(db.Names(), ", "))

	select {
	case err := <-errc:
		srv.Close()
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down: draining in-flight requests")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Only after the drain: flush and close the store, surfacing fsync
	// failures as a nonzero exit instead of swallowing them.
	if err := srv.Close(); err != nil {
		log.Fatalf("close store: %v", err)
	}
	log.Printf("bye")
}

// ingestDurable pushes an in-memory table through the store's WAL so
// it survives restarts; with no store it just registers it. Reports
// whether the table is durable.
func ingestDurable(st *store.DB, db *engine.DB, t *engine.Table) bool {
	if st == nil {
		db.Register(t)
		return false
	}
	if err := st.CreateTable(t.Name(), t.Schema(), engine.DefaultSegmentBits); err != nil {
		log.Fatalf("create %s: %v", t.Name(), err)
	}
	const chunk = 8192 // one WAL record (and fsync) per chunk, not per row
	for lo := 0; lo < t.NumRows(); lo += chunk {
		hi := min(lo+chunk, t.NumRows())
		if _, err := st.AppendColsCtx(context.Background(), t.Name(), t.Batch(lo, hi)); err != nil {
			log.Fatalf("ingest %s: %v", t.Name(), err)
		}
	}
	return true
}
