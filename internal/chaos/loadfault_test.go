package chaos

// The chunk-load failure matrix: run core.Debug and core.DebugAdvance
// over an out-of-core table whose backing reads fail, once for every
// read a clean pass issues. A failed chunk load — whether it lands in
// the argument-view build, the learning-frame gather, or a ranker
// helper extending a clause mask — must come back as an error wrapping
// *engine.SegmentLoadError, never a panic (par.Do re-raises a helper's
// on the calling goroutine, where the ranker's catch turns it into that
// error), leave zero chunks pinned and no goroutine behind (TestMain's
// leakcheck), and leave the carried state reusable: the same call on
// the healed filesystem produces what the oracle — the same table
// behind an uncapped pool on the undamaged filesystem — does.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

func TestMatrixDebugLoadFailure(t *testing.T) {
	quiet := func(string, ...any) {}
	mem := vfstest.NewMemFS()
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
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: quiet, MaxResidentBytes: 256})
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

	run := func(tbl *engine.Table, stmtSeed int64) *exec.Result {
		res, err := exec.Run(t.Context(), tbl, testgen.DebugStmt(rand.New(rand.NewSource(stmtSeed))))
		if err != nil {
			t.Fatalf("stmt seed %d: %v", stmtSeed, err)
		}
		return res
	}
	// faultEvery replays op on the result prep gives it (op must build
	// all its state fresh; prep runs unfaulted) with each of op's reads
	// failing in turn and checks the contract.
	faultEvery := func(label string, oracle *core.DebugResult, prep func() *exec.Result, op func(*exec.Result) (*core.DebugResult, error)) (failed int) {
		res := prep()
		mem.FailReadAt(0)
		clean, err := op(res)
		if err != nil {
			t.Fatalf("%s: clean pass: %v", label, err)
		}
		sameAnswer(t, label+" clean", oracle, clean)
		n := mem.Reads()
		if n == 0 {
			t.Fatalf("%s: the pass read nothing — the table is not out of core", label)
		}
		m := n // every read; under -short at most 64, evenly spread
		if testing.Short() {
			m = min(n, 64)
		}
		for i := range m {
			k := i * n / m
			res := prep()
			mem.FailReadAt(k + 1)
			got, err := op(res)
			mem.FailReadAt(0)
			if pinned := st.PoolPinned(); pinned != 0 {
				t.Fatalf("%s read %d: %d chunks pinned after the pass (err %v)", label, k+1, pinned, err)
			}
			if err == nil {
				// Worker scheduling moved the armed read past the pass's last.
				sameAnswer(t, fmt.Sprintf("%s read %d (not reached)", label, k+1), oracle, got)
				continue
			}
			var sle *engine.SegmentLoadError
			if !errors.As(err, &sle) || !errors.Is(err, vfstest.ErrInjected) {
				t.Fatalf("%s read %d: error %v does not wrap the SegmentLoadError of the injected fault", label, k+1, err)
			}
			failed++
			healed, err := op(prep())
			if err != nil {
				t.Fatalf("%s read %d: pass on the healed filesystem failed: %v", label, k+1, err)
			}
			sameAnswer(t, fmt.Sprintf("%s read %d healed", label, k+1), oracle, healed)
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
		opt := core.Options{DriftThreshold: math.Inf(1)} // an advance always carries
		// Highlighted examples: the carried pass then gathers the learning
		// frame to clean them, so it reads sealed segments, not only the
		// resident tail.
		F := oracleRes.Lineage(suspect)
		examples := F[:len(F)/3+1]
		req := func(res *exec.Result) core.DebugRequest {
			return core.DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Examples: examples, Metric: metric, Opt: opt}
		}
		oracle, err := core.Debug(req(oracleRes))
		if err != nil || len(oracle.Explanations) == 0 {
			continue
		}
		// The carried pass's oracle is the same pass over the oracle table.
		oracleAdvRes, err := exec.AdvanceCtx(t.Context(), oracleRes, oracleGrown)
		if err != nil {
			t.Fatalf("seed %d: oracle advance: %v", seed, err)
		}
		oracleAdv, err := core.DebugAdvance(oracle, req(oracleAdvRes))
		if err != nil {
			continue
		}
		if oracleAdv.Plan.Mode != "carried" {
			t.Fatalf("seed %d: the oracle advance was not carried: %+v", seed, oracleAdv.Plan)
		}
		cases++

		// A fresh result per attempt: its argument view and lineage
		// caches are part of what a Debug reads.
		failed += faultEvery(fmt.Sprintf("seed %d debug", seed), oracle,
			func() *exec.Result { return run(tbl, seed) },
			func(res *exec.Result) (*core.DebugResult, error) { return core.Debug(req(res)) })

		// The carried pass: prev must survive every failed advance.
		res := run(tbl, seed)
		prev, err := core.Debug(req(res))
		if err != nil {
			t.Fatalf("seed %d: prev: %v", seed, err)
		}
		advRes, err := exec.AdvanceCtx(t.Context(), res, grown)
		if err != nil {
			t.Fatalf("seed %d: advance: %v", seed, err)
		}
		failed += faultEvery(fmt.Sprintf("seed %d advance", seed), oracleAdv,
			func() *exec.Result { return advRes },
			func(res *exec.Result) (*core.DebugResult, error) { return core.DebugAdvance(prev, req(res)) })
	}
	t.Logf("%d cases, %d failed passes", cases, failed)
	if cases < 2 || failed < 20 {
		t.Fatalf("matrix degenerated: %d cases, %d failed passes", cases, failed)
	}
}

// sameAnswer fails the test unless got answered what want did: ε to the
// bit, F, D′, the candidate count and every explanation field.
func sameAnswer(t *testing.T, label string, want, got *core.DebugResult) {
	t.Helper()
	answer := func(d *core.DebugResult) []any {
		return []any{math.Float64bits(d.Eps), d.F, d.DPrime, d.Candidates, d.Explanations}
	}
	if !reflect.DeepEqual(answer(want), answer(got)) {
		t.Fatalf("%s: answered %v, the oracle %v", label, answer(got), answer(want))
	}
}
