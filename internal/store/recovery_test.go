package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// This file is the crash matrix: an append/seal/retention workload is
// run against vfstest.MemFS with a crash injected at EVERY failpoint
// in turn; after each crash the filesystem is "rebooted" (Crash) and
// reopened, and the recovered table must be
// bit-identical to an oracle that holds exactly the acknowledged
// batches — plus, at most, the single operation that was in flight
// when the power died. TestMatrixStore, at the bottom, is its
// cancellation twin: a mutation cancelled at each failpoint.

// crashOracle mirrors what the store has acknowledged to the client.
type crashOracle struct {
	rows      [][]engine.Value // all acked rows, indexed by stream id
	inflight  [][]engine.Value // rows of the append in flight at the crash
	baseLow   int              // base of the last ACKED retention
	syncedVer int              // rows the durability contract guarantees
	batches   int              // unsynced-batch mirror of the store's counter
	created   bool             // CreateTable acked
}

// runCrashWorkload drives a deterministic (per rng) workload through
// the store, maintaining the oracle, until an injected fault stops it
// or steps complete. Returns the store error that stopped it (nil on
// full completion).
func runCrashWorkload(st *DB, rng *rand.Rand, steps, syncEvery int, o *crashOracle) error {
	segBits := uint(engine.MinSegmentBits)
	if err := st.CreateTable("p", testgen.Schema(), segBits); err != nil {
		return err
	}
	o.created = true
	for i := 0; i < steps; i++ {
		tab, err := st.Eng().Table("p")
		if err != nil {
			return err
		}
		if i%6 == 5 {
			keep := tab.SegRows() * (1 + rng.Intn(3))
			_, stats, err := st.RetainCtx(context.Background(), "p", engine.RetentionPolicy{MaxRows: keep})
			if err != nil {
				return err
			}
			o.baseLow = stats.Base
			continue
		}
		batch := testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, tab))
		o.inflight = batch
		prevVer := tab.Version()
		nt, err := st.Append("p", batch)
		if err != nil {
			return err
		}
		o.rows = append(o.rows, batch...)
		o.inflight = nil
		// Mirror the durability floor: per-batch fsync at SyncEvery<=1;
		// otherwise every SyncEvery'th batch, and every seal (the WAL
		// rewrite fsyncs whatever tail remains).
		if syncEvery <= 1 {
			o.syncedVer = nt.Version()
		} else {
			o.batches++
			if o.batches >= syncEvery || nt.Version()>>segBits > prevVer>>segBits {
				o.syncedVer = nt.Version()
				o.batches = 0
			}
		}
	}
	return nil
}

// verifyRecovered checks the recovered store against the oracle.
func verifyRecovered(t *testing.T, st *DB, o *crashOracle, requireFloor bool) {
	t.Helper()
	stats := st.Stats()
	tab, err := st.Eng().Table("p")
	if err != nil {
		// The table may only be missing if its creation never acked.
		if o.created {
			t.Fatalf("acked table lost: %v (skipped: %v)", err, stats.Skipped)
		}
		return
	}
	// Crashes must never read as corruption.
	ts := stats.Tables["p"]
	if len(ts.Quarantined) != 0 || ts.GapSegments != 0 || len(stats.Skipped) != 0 {
		t.Fatalf("pure crash produced quarantine/gap: %+v", stats)
	}
	if requireFloor && tab.Version() < o.syncedVer {
		t.Fatalf("recovered version %d below durability floor %d", tab.Version(), o.syncedVer)
	}
	if tab.Base() < o.baseLow {
		t.Fatalf("recovered base %d below last acked retention base %d", tab.Base(), o.baseLow)
	}
	if tab.Base() > tab.Version() {
		t.Fatalf("recovered base %d beyond version %d", tab.Base(), tab.Version())
	}
	acked := len(o.rows)
	if max := acked + len(o.inflight); tab.Version() > max {
		t.Fatalf("recovered version %d beyond acked+inflight %d", tab.Version(), max)
	}
	for r := 0; r < tab.NumRows(); r++ {
		id := tab.Base() + r
		var want []engine.Value
		if id < acked {
			want = o.rows[id]
		} else {
			want = o.inflight[id-acked]
		}
		for c := 0; c < tab.NumCols(); c++ {
			if got := tab.Value(r, c); !valueEq(got, want[c]) {
				t.Fatalf("stream row %d col %d: got %v want %v", id, c, got, want[c])
			}
		}
	}
}

// runCrashMatrix crashes one workload shape at every failpoint.
func runCrashMatrix(t *testing.T, seed int64, steps, syncEvery int) {
	// Size the matrix: run once unarmed and count failpoints.
	sizing := vfstest.NewMemFS()
	st, err := Open("/db", quietOpts(sizing, syncEvery))
	if err != nil {
		t.Fatal(err)
	}
	if err := runCrashWorkload(st, rand.New(rand.NewSource(seed)), steps, syncEvery, &crashOracle{}); err != nil {
		t.Fatalf("unarmed workload failed: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	total := sizing.Ops()
	if total < 50 {
		t.Fatalf("workload too small for a meaningful matrix: %d ops", total)
	}

	for fail := 1; fail <= total; fail++ {
		fail := fail
		t.Run(fmt.Sprintf("failpoint-%03d", fail), func(t *testing.T) {
			mem := vfstest.NewMemFS()
			mem.CrashAt(fail, rand.New(rand.NewSource(seed^int64(fail))))
			st, err := Open("/db", quietOpts(mem, syncEvery))
			if err != nil {
				t.Fatal(err) // opening an empty dir does no mutating I/O
			}
			o := &crashOracle{}
			werr := runCrashWorkload(st, rand.New(rand.NewSource(seed)), steps, syncEvery, o)
			if werr == nil {
				t.Fatalf("failpoint %d of %d did not fire", fail, total)
			}
			if !errors.Is(werr, vfstest.ErrInjected) && !errors.Is(werr, vfstest.ErrCrashed) &&
				!errors.Is(werr, ErrClosed) && !errIsFailStop(werr) {
				t.Fatalf("workload died with unexpected error: %v", werr)
			}
			mem.Crash(rand.New(rand.NewSource(seed + int64(fail))))

			re, err := Open("/db", quietOpts(mem, syncEvery))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			verifyRecovered(t, re, o, syncEvery <= 1)
			v1, b1 := tableShape(re)
			if err := re.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}

			// Recovery must be idempotent: a second crash-free open
			// serves the identical table and performs no repair. This one
			// is out of core, so the acknowledged rows are compared with a
			// resident reopen above and a faultable one here.
			lazy := quietOpts(mem, syncEvery)
			lazy.MaxResidentBytes = 4096
			re2, err := Open("/db", lazy)
			if err != nil {
				t.Fatalf("second recovery open: %v", err)
			}
			verifyRecovered(t, re2, o, syncEvery <= 1)
			if v2, b2 := tableShape(re2); v2 != v1 || b2 != b1 {
				t.Fatalf("recovery not idempotent: version/base %d/%d then %d/%d", v1, b1, v2, b2)
			}
			if err := re2.Close(); err != nil {
				t.Fatalf("close after second recovery: %v", err)
			}
		})
	}
}

func errIsFailStop(err error) bool {
	return err != nil && (errors.Is(err, vfstest.ErrInjected) || errors.Is(err, vfstest.ErrCrashed))
}

func tableShape(st *DB) (version, base int) {
	tab, err := st.Eng().Table("p")
	if err != nil {
		return -1, -1
	}
	return tab.Version(), tab.Base()
}

// TestCrashMatrixSynced is the headline guarantee: with per-batch
// fsync, a crash at ANY system call loses nothing acknowledged.
func TestCrashMatrixSynced(t *testing.T) {
	runCrashMatrix(t, 42, 24, 1)
}

// TestCrashMatrixBatched covers the relaxed mode: crashes may lose a
// bounded suffix of acked batches but never tear or reorder one.
func TestCrashMatrixBatched(t *testing.T) {
	runCrashMatrix(t, 77, 24, 8)
}

// TestCrashMatrixSecondSeed varies the workload shape so the matrix
// isn't pinned to one interleaving of seals and retention passes.
func TestCrashMatrixSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("one matrix seed is enough under -short")
	}
	runCrashMatrix(t, 1234, 30, 1)
}

// TestMatrixStore cancels AppendCtx and RetainCtx at each of their
// failpoints (chaos.CancelEach): a cancelled mutation acknowledges,
// publishes and writes nothing, so its retry lands once, and a restart
// recovers exactly the acknowledged rows.
func TestMatrixStore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mem := vfstest.NewMemFS()
	st, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	o := &crashOracle{created: true}
	check := func(_, got *engine.Table, err error) error {
		if err == nil && (got.Version() != len(o.rows) || got.Base() != o.baseLow) {
			err = fmt.Errorf("version/base %d/%d, acknowledged %d/%d", got.Version(), got.Base(), len(o.rows), o.baseLow)
		}
		return err
	}
	for step := range 8 {
		tab, err := st.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}
		retain, size := step%4 == 3, enginetest.BoundaryBatchSize(rng, tab)
		if retain {
			size = 2 * tab.SegRows()
		}
		mutate := func(ctx context.Context) (nt *engine.Table, err error) {
			// A retention grows the table by two segments first,
			// uncancelled, so that every attempt drops one.
			batch := testgen.Batch(rng, size)
			if retain {
				if _, err := st.AppendCtx(context.Background(), "p", batch); err != nil {
					return nil, err
				}
				o.rows = append(o.rows, batch...)
			}
			v, b := tableShape(st)
			if retain {
				var stats engine.RetainStats
				if nt, stats, err = st.RetainCtx(ctx, "p", engine.RetentionPolicy{MaxRows: tab.SegRows()}); err == nil {
					o.baseLow = stats.Base
				}
			} else if nt, err = st.AppendCtx(ctx, "p", batch); err == nil {
				o.rows = append(o.rows, batch...)
			}
			if v2, b2 := tableShape(st); err != nil && (v2 != v || b2 != b) {
				return nil, fmt.Errorf("a failed mutation moved version/base %d/%d to %d/%d: %v", v, b, v2, b2, err)
			}
			return nt, err
		}
		if n, err := chaos.CancelEach(mutate, check); err != nil || n == 0 {
			t.Fatalf("step %d: %d cancelled attempts: %v", step, n, err)
		}
	}
	// The last append is cancelled and never retried: no record of it
	// may survive the restart.
	if _, err := st.AppendCtx(chaos.CancelAfter(0), "p", testgen.Batch(rng, 8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append returned %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	o.syncedVer = len(o.rows)
	verifyRecovered(t, re, o, true)
}
