package chaos

// The chunk-load failure matrix: run core.Debug and core.DebugAdvance
// over an out-of-core table whose backing reads fail, once for every
// read a clean pass issues. A failed chunk load — whether it lands in
// the argument-view build, the learning-frame gather, or a ranker
// worker extending a clause mask — must come back as an error wrapping
// *engine.SegmentLoadError (never a panic: an unrecovered one in a
// worker goroutine would kill this test binary), leave zero chunks
// pinned and no goroutine behind (TestMain's leakcheck), and leave the
// carried state reusable: the same call on the healed filesystem
// produces what the resident oracle does.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/testgen"
)

// readFaultFS fails the failAt'th ReadAt (1-based) since the last arm;
// everything else passes through.
type readFaultFS struct {
	store.FS
	mu     sync.Mutex
	reads  int
	failAt int
}

var errReadFault = errors.New("chaos: injected read failure")

func (f *readFaultFS) arm(failAt int) {
	f.mu.Lock()
	f.reads, f.failAt = 0, failAt
	f.mu.Unlock()
}

func (f *readFaultFS) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

func (f *readFaultFS) ReadAt(name string, off int64, p []byte) (int, error) {
	f.mu.Lock()
	f.reads++
	fail := f.reads == f.failAt
	f.mu.Unlock()
	if fail {
		return 0, errReadFault
	}
	return f.FS.ReadAt(name, off, p)
}

func TestMatrixDebugLoadFailure(t *testing.T) {
	quiet := func(string, ...any) {}
	mem := store.NewMemFS()
	rng := rand.New(rand.NewSource(53))
	seedSt, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedSt.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	if _, err := seedSt.Append("p", testgen.Batch(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if err := seedSt.Close(); err != nil {
		t.Fatal(err)
	}
	oracleSt, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	oracleTbl, err := oracleSt.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := oracleSt.Close(); err != nil {
		t.Fatal(err)
	}
	// A pool far smaller than one chunk: every pin is a read.
	ffs := &readFaultFS{FS: mem}
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: ffs, Logf: quiet, MaxResidentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	batch := testgen.Batch(rng, 70)
	oracleGrown, err := oracleTbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	opts := exec.Options{Shards: 2}
	run := func(tbl *engine.Table, stmtSeed int64) *exec.Result {
		res, err := exec.RunOnWithCtx(context.Background(), tbl, testgen.DebugStmt(rand.New(rand.NewSource(stmtSeed))), opts)
		if err != nil {
			t.Fatalf("stmt seed %d: %v", stmtSeed, err)
		}
		return res
	}
	// faultEvery replays op (which must build all its state fresh) with
	// each of its reads failing in turn and checks the contract.
	faultEvery := func(label string, oracle *core.DebugResult, op func() (*core.DebugResult, error)) (failed int) {
		ffs.arm(0)
		clean, err := op()
		if err != nil {
			t.Fatalf("%s: clean pass: %v", label, err)
		}
		debugEq(t, label+" clean", oracle, clean)
		n := ffs.count()
		if n == 0 {
			t.Fatalf("%s: the pass read nothing — the table is not out of core", label)
		}
		points := matrixPoints(n)
		if !testing.Short() {
			points = matrixPoints(0)
			for k := 0; k < n; k++ {
				points = append(points, k)
			}
		}
		for _, k := range points {
			ffs.arm(k + 1)
			got, err := op()
			ffs.arm(0)
			if pinned := st.PoolPinned(); pinned != 0 {
				t.Fatalf("%s read %d: %d chunks pinned after the pass (err %v)", label, k+1, pinned, err)
			}
			if err == nil {
				// Worker scheduling moved the armed read past the pass's last.
				debugEq(t, fmt.Sprintf("%s read %d (not reached)", label, k+1), oracle, got)
				continue
			}
			var sle *engine.SegmentLoadError
			if !errors.As(err, &sle) || !errors.Is(err, errReadFault) {
				t.Fatalf("%s read %d: error %v does not wrap the SegmentLoadError of the injected fault", label, k+1, err)
			}
			failed++
			healed, err := op()
			if err != nil {
				t.Fatalf("%s read %d: pass on the healed filesystem failed: %v", label, k+1, err)
			}
			debugEq(t, fmt.Sprintf("%s read %d healed", label, k+1), oracle, healed)
		}
		return failed
	}

	cases, failed := 0, 0
	for seed := int64(1); seed <= 12 && cases < 3; seed++ {
		prng := rand.New(rand.NewSource(seed * 131))
		oracleRes := run(oracleTbl, seed)
		suspect := testgen.Suspects(prng, oracleRes)
		if len(suspect) == 0 {
			continue
		}
		metric := testgen.Metric(prng)
		opt := core.Options{DriftThreshold: -1} // always re-expand: every stage runs
		req := func(res *exec.Result) core.DebugRequest {
			return core.DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: metric, Opt: opt}
		}
		oracle, err := core.Debug(req(oracleRes))
		if err != nil || len(oracle.Explanations) == 0 {
			continue
		}
		oracleAdv, err := core.Debug(req(run(oracleGrown, seed)))
		if err != nil {
			continue
		}
		cases++

		// A fresh result per attempt: its argument view and lineage
		// caches are part of what a Debug reads.
		failed += faultEvery(fmt.Sprintf("seed %d debug", seed), oracle, func() (*core.DebugResult, error) {
			ffs.mu.Lock()
			armed := ffs.failAt
			ffs.failAt = 0 // the query is not under test
			ffs.mu.Unlock()
			res := run(tbl, seed)
			ffs.arm(armed)
			return core.Debug(req(res))
		})

		// The carried pass: prev must survive every failed advance.
		res := run(tbl, seed)
		prev, err := core.Debug(req(res))
		if err != nil {
			t.Fatalf("seed %d: prev: %v", seed, err)
		}
		advRes, err := exec.Advance(res, grown)
		if err != nil {
			t.Fatalf("seed %d: advance: %v", seed, err)
		}
		failed += faultEvery(fmt.Sprintf("seed %d advance", seed), oracleAdv, func() (*core.DebugResult, error) {
			return core.DebugAdvance(prev, req(advRes))
		})
	}
	t.Logf("%d cases, %d failed passes", cases, failed)
	if cases < 2 || failed < 20 {
		t.Fatalf("matrix degenerated: %d cases, %d failed passes", cases, failed)
	}
}
