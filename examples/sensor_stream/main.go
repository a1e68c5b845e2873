// Sensor stream walkthrough — the paper's continuous-monitoring
// scenario: readings keep arriving from the motes and the analyst
// re-runs the Figure 4 window query and Debug over the growing table,
// forever, at bounded memory.
//
// This is the streaming counterpart of examples/sensor_anomaly. Each
// cycle appends one batch of rows (Table.Batch) through the
// copy-on-write ingest path (store.DB.AppendColsCtx), advances the
// cached query result by folding in only the appended rows
// (exec.Advance — no rescan), and advances
// the previous Debug analysis the same way (core.DebugAdvance): the
// carried lineage bitsets, argument view and scored predicates all
// extend by the appended suffix, and the learners only re-run when a
// carried predicate's score drifts.
//
// On top of the streaming loop, a retention policy (engine.DB.Retain)
// drops whole head segments past a row horizon every few batches, so
// the retained segment count — and with it resident memory — plateaus
// while the stream keeps growing. A carried answer is valid only at the
// retention base it was computed at, so the batch that crosses a
// horizon re-runs the query and Debug over the retained window with the
// reason recorded in the plan, and the loop carries again from there.
// The printed per-batch latency stays flat as the STREAM grows because
// the WINDOW doesn't: the cycle costs O(batch + window), not O(stream).
//
// PR 6 makes the stream durable: every batch goes through
// internal/store's write-ahead log before it is acknowledged, sealed
// segments spill to checksummed files, and retention is committed via
// an atomic manifest. The walkthrough ends by closing the store
// (surfacing any deferred fsync error) and reopening the data
// directory to show crash-style recovery handing back the exact
// retained window.
//
//	go run ./examples/sensor_stream
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/store"
)

const (
	baseRows  = 60_000
	batches   = 14
	batchRows = 2_000
	// retainRows keeps roughly the newest 40k readings: segments wholly
	// before the horizon are dropped every retainEvery batches.
	retainRows  = 40_000
	retainEvery = 3
	// segBits sizes segments at 4Ki rows so the demo's modest stream
	// spans many segments; production streams keep the 64Ki default.
	segBits = 12
)

func main() {
	// Generate the whole trace once, then replay its tail as live
	// batches against a table seeded with the first baseRows readings.
	full, _ := datasets.Intel(datasets.IntelConfig{Rows: baseRows + batches*batchRows, Seed: 11})

	// The stream is durable: a segment store under a scratch directory
	// WAL-logs every batch before acknowledging it and spills sealed
	// segments to checksummed files.
	dir, err := os.MkdirTemp("", "sensor_stream-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{SyncEvery: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := st.CreateTable("readings", full.Schema(), segBits); err != nil {
		log.Fatal(err)
	}
	if _, err := st.AppendColsCtx(context.Background(), "readings", full.Batch(0, baseRows)); err != nil {
		log.Fatal(err)
	}
	db := st.Eng()

	fmt.Printf("monitoring %d motes; base trace %d rows; %d-row segments, retain ~%d rows; durable dir %s; query:\n  %s\n\n",
		54, baseRows, 1<<segBits, retainRows, dir, datasets.IntelWindowSQL)

	res, err := exec.RunSQL(db, datasets.IntelWindowSQL)
	if err != nil {
		log.Fatal(err)
	}
	var dbg *core.DebugResult
	dbg = report(res, dbg, 0, 0, "")

	for b := 0; b < batches; b++ {
		lo := baseRows + b*batchRows
		batch := full.Batch(lo, lo+batchRows)
		start := time.Now()
		grown, err := st.AppendColsCtx(context.Background(), "readings", batch)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if (b+1)%retainEvery == 0 {
			retained, stats, err := st.Retain("readings", engine.RetentionPolicy{MaxRows: retainRows})
			if err != nil {
				log.Fatal(err)
			}
			if stats.DroppedSegments > 0 {
				note = fmt.Sprintf("dropped %d segs", stats.DroppedSegments)
			}
			grown = retained
		}
		res, err = exec.Advance(res, grown)
		if err != nil {
			log.Fatal(err)
		}
		// Between horizons every batch must advance incrementally;
		// crossing one re-runs (reason recorded).
		if !res.Plan.Incremental && res.Plan.Fallback == "" {
			log.Fatalf("batch %d fell back without a reason: %+v", b, res.Plan)
		}
		dbg = report(res, dbg, b+1, time.Since(start), note)
	}

	// Shut the stream down and prove the data survived. Close flushes
	// the WAL and reports any deferred fsync error — ignoring it would
	// mean exiting 0 with the tail not actually on disk.
	final, err := db.Table("readings")
	if err != nil {
		log.Fatal(err)
	}
	wantVer, wantBase, wantRows := final.Version(), final.Base(), final.NumRows()
	if err := st.Close(); err != nil {
		log.Fatalf("close store: %v", err)
	}
	re, err := store.Open(dir, store.Options{SyncEvery: 1})
	if err != nil {
		log.Fatalf("reopen store: %v", err)
	}
	rec, err := re.Eng().Table("readings")
	if err != nil {
		log.Fatalf("recovery lost the table: %v", err)
	}
	if rec.Version() != wantVer || rec.Base() != wantBase || rec.NumRows() != wantRows {
		log.Fatalf("recovery mismatch: got version/base/rows %d/%d/%d, want %d/%d/%d",
			rec.Version(), rec.Base(), rec.NumRows(), wantVer, wantBase, wantRows)
	}
	ts := re.Stats().Tables["readings"]
	fmt.Printf("\nrestart: recovered stream rows [%d, %d) from %d sealed segment files + WAL tail — bit-identical window, nothing lost\n",
		rec.Base(), rec.Version(), ts.SealedOnDisk)
	if err := re.Close(); err != nil {
		log.Fatalf("close reopened store: %v", err)
	}
}

// report re-runs the monitoring check on the current result: highlight
// high-stddev windows, advance the previous Debug analysis (or run a
// fresh one on the first batch), and print the top suspect predicate
// plus the retained-storage footprint. It returns the analysis so the
// next batch can advance it again.
func report(res *exec.Result, prev *core.DebugResult, batch int, cycle time.Duration, note string) *core.DebugResult {
	segs, bytes := res.Source.MemStats()
	suspect, err := core.SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(suspect) == 0 {
		fmt.Printf("batch %2d: stream %7d window %6d rows, %3d segs %5.1f MB, no suspect windows yet\n",
			batch, res.Source.Version(), res.Source.NumRows(), segs, float64(bytes)/(1<<20))
		return prev
	}
	// No explicit D' examples: the high-influence set stands in,
	// derived fresh inside each pass. Explicit example rows are part of
	// the question's identity — listing different rows each batch would
	// (correctly) force the learners to re-run every time, since
	// carried rankings only answer an unchanged question.
	t0 := time.Now()
	dr, err := core.DebugAdvance(prev, core.DebugRequest{
		Result:  res,
		AggItem: -1,
		Suspect: suspect,
		Metric:  errmetric.TooHigh{C: 70},
	})
	if err != nil {
		log.Fatal(err)
	}
	top := "(none)"
	if len(dr.Explanations) > 0 {
		top = dr.Explanations[0].Pred.String()
	}
	fmt.Printf("batch %2d: stream %7d window %6d rows, %3d segs %5.1f MB, %2d suspect  cycle %s  debug %s [%s] %s  top: %s\n",
		batch, res.Source.Version(), res.Source.NumRows(), segs, float64(bytes)/(1<<20), len(suspect),
		cycle.Round(time.Microsecond), time.Since(t0).Round(time.Millisecond), dr.Plan.Mode, note, top)
	return dr
}
