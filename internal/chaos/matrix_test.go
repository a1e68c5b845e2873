package chaos

// The cancellation failpoint matrix: for each carried-state operation,
// measure how many cancellation checkpoints it crosses (CountPolls),
// then replay it once per checkpoint with CancelAfter(k). Every
// cancelled attempt must (a) surface context.Canceled, and (b) leave
// the carried state so intact that an uncancelled retry is
// bit-identical to a from-scratch oracle. This is exhaustive over the
// operation's failpoints the same way the store's recovery matrix is
// exhaustive over its filesystem operations.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// maxMatrix caps how many failpoints a single case enumerates; beyond
// it the matrix samples evenly. Scan-heavy statements cross one
// checkpoint per fold block and per 4096 rows within one.
const maxMatrix = 64

// matrixPoints returns the failpoint indexes to exercise: all of them
// up to maxMatrix, an even sample beyond.
func matrixPoints(n int) []int {
	if n <= maxMatrix {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, maxMatrix)
	step := float64(n) / float64(maxMatrix)
	for i := 0; i < maxMatrix; i++ {
		out = append(out, int(float64(i)*step))
	}
	return out
}

// resultsEq asserts two exec results have bit-identical output tables.
func resultsEq(t *testing.T, label string, want, got *exec.Result) {
	t.Helper()
	wt, gt := want.Table, got.Table
	if wt.NumRows() != gt.NumRows() || wt.NumCols() != gt.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, wt.NumRows(), wt.NumCols(), gt.NumRows(), gt.NumCols())
	}
	for r := 0; r < wt.NumRows(); r++ {
		for c := 0; c < wt.NumCols(); c++ {
			if !engine.Equal(wt.Value(r, c), gt.Value(r, c)) {
				t.Fatalf("%s: cell (%d,%d) %v vs %v", label, r, c, wt.Value(r, c), gt.Value(r, c))
			}
		}
	}
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("%s: %d vs %d groups", label, len(want.Groups), len(got.Groups))
	}
	for i := range want.Groups {
		wl, gl := want.Lineage([]int{i}), got.Lineage([]int{i})
		if len(wl) != len(gl) {
			t.Fatalf("%s: group %d lineage %d vs %d", label, i, len(wl), len(gl))
		}
		for j := range wl {
			if wl[j] != gl[j] {
				t.Fatalf("%s: group %d lineage[%d] %d vs %d", label, i, j, wl[j], gl[j])
			}
		}
	}
}

// TestMatrixRun enumerates cancellation points of a fold-block scan: a
// cancelled run returns Canceled and no result; an uncancelled retry
// matches the oracle (scans are read-only, so the pin here is that
// cancellation surfaces and nothing deadlocks or leaks — TestMain's
// leak check covers the suite).
func TestMatrixRun(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	cases := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		tbl := testgen.TableSeg(rng, 9000+rng.Intn(4000), engine.MinSegmentBits)
		stmt := testgen.DebugStmt(rng)
		oracle, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			continue
		}
		n, err := CountPolls(func(ctx context.Context) error {
			_, err := exec.Run(ctx, tbl, stmt)
			return err
		})
		if err != nil {
			t.Fatalf("seed %d: counting run failed: %v", seed, err)
		}
		if n == 0 {
			t.Fatalf("seed %d: scan over %d rows crossed no cancellation checkpoints", seed, tbl.NumRows())
		}
		for _, k := range matrixPoints(n) {
			res, err := exec.Run(CancelAfter(k), tbl, stmt)
			if err == nil {
				t.Fatalf("seed %d k=%d: cancelled run succeeded", seed, k)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d k=%d: error %v does not wrap Canceled", seed, k, err)
			}
			if res != nil {
				t.Fatalf("seed %d k=%d: cancelled run returned a result", seed, k)
			}
			retry, err := exec.Run(t.Context(), tbl, stmt)
			if err != nil {
				t.Fatalf("seed %d k=%d: retry failed: %v", seed, k, err)
			}
			resultsEq(t, fmt.Sprintf("seed %d k=%d [%s]", seed, k, stmt.String()), oracle, retry)
			cases++
		}
	}
	minCases := 8
	if testing.Short() {
		minCases = 3
	}
	if cases < minCases {
		t.Fatalf("matrix degenerated: only %d cancelled cases", cases)
	}
}

// TestMatrixAdvance is the heart of the tentpole pin: cancel
// exec.AdvanceCtx at every checkpoint and require the carried result to
// stay reusable — the retry must advance (not be poisoned by the
// half-done attempt) and match the from-scratch oracle bit for bit.
func TestMatrixAdvance(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 3
	}
	cases := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 211))
		tbl := testgen.TableSeg(rng, 4000+rng.Intn(3000), engine.MinSegmentBits)
		stmt := testgen.DebugStmt(rng)
		res, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			continue
		}
		// A large appended batch pushes the suffix scan across many
		// cancellation checkpoints (one per ctxCheckRows rows).
		grown, err := tbl.AppendBatch(testgen.Batch(rng, 9000+rng.Intn(4000)))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := exec.Run(t.Context(), grown, stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		// Measure the matrix: Advance never writes res.
		n, err := CountPolls(func(ctx context.Context) error {
			_, err := exec.AdvanceCtx(ctx, res, grown)
			return err
		})
		if err != nil {
			t.Fatalf("seed %d: counting advance failed: %v", seed, err)
		}
		for _, k := range matrixPoints(n) {
			// Fresh carried state per trial.
			res, err = exec.Run(t.Context(), tbl, stmt)
			if err != nil {
				t.Fatalf("seed %d k=%d: base run: %v", seed, k, err)
			}
			adv, cerr := exec.AdvanceCtx(CancelAfter(k), res, grown)
			if cerr == nil {
				// The checkpoint count can shrink slightly across trials
				// (e.g. the fallback path not taken); a success here must
				// still match the oracle.
				resultsEq(t, fmt.Sprintf("seed %d k=%d uncancelled", seed, k), oracle, adv)
				continue
			}
			if !errors.Is(cerr, context.Canceled) {
				t.Fatalf("seed %d k=%d: error %v does not wrap Canceled", seed, k, cerr)
			}
			// The carried res must remain advanceable: the cancelled
			// attempt must not have half-published.
			retry, err := exec.AdvanceCtx(context.Background(), res, grown)
			if err != nil {
				t.Fatalf("seed %d k=%d: retry after cancel failed: %v", seed, k, err)
			}
			resultsEq(t, fmt.Sprintf("seed %d k=%d [%s]", seed, k, stmt.String()), oracle, retry)
			cases++
		}
	}
	minCases := 10
	if testing.Short() {
		minCases = 4
	}
	if cases < minCases {
		t.Fatalf("matrix degenerated: only %d cancelled cases", cases)
	}
}

// TestMatrixProvenance cancels, at every checkpoint, the first read of
// an advanced result's provenance: the build that extends the value its
// parent built — lineage, the bitsets and the argument view it held — by
// one lineage pass over the appended rows. A cancelled build publishes
// nothing (the next read builds again, so cancelled at its first poll it
// fails too), and the uncancelled retry is bit-identical to the value of
// a fresh run over the grown table. Each trial advances the one base
// result anew: a result may be advanced any number of times.
func TestMatrixProvenance(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 2
	}
	cases := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		tbl := testgen.TableSeg(rng, 4000+rng.Intn(2000), engine.MinSegmentBits)
		stmt := testgen.DebugStmt(rng)
		res, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			continue
		}
		prov, err := res.Provenance(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prov.ArgView(0) // an evaluation error leaves nothing to extend
		for ri := range res.Groups {
			prov.Bits(ri)
		}
		grown, err := tbl.AppendBatch(testgen.Batch(rng, 9000+rng.Intn(4000)))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := exec.Run(t.Context(), grown, stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		advance := func() *exec.Result {
			adv, err := exec.AdvanceCtx(t.Context(), res, grown)
			if err != nil || !adv.Plan.Incremental {
				t.Fatalf("seed %d: Advance: %v", seed, err)
			}
			return adv
		}
		n, err := CountPolls(func(ctx context.Context) error {
			_, err := advance().Provenance(ctx)
			return err
		})
		if err != nil || n < 2 {
			t.Fatalf("seed %d: the build crossed %d checkpoints (err %v)", seed, n, err)
		}
		for _, k := range matrixPoints(n) {
			label := fmt.Sprintf("seed %d k=%d [%s]", seed, k, stmt)
			adv := advance()
			if _, err := adv.Provenance(CancelAfter(k)); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled build returned %v", label, err)
			}
			if _, err := adv.Provenance(CancelAfter(0)); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: a cancelled build published a value (the next read returned %v)", label, err)
			}
			provEq(t, label, oracle, adv)
			cases++
		}
	}
	if cases < 4 {
		t.Fatalf("matrix degenerated: only %d cancelled cases", cases)
	}
}

// provEq asserts two results' provenance values are bit-identical: every
// output row's lineage and lineage bitset, and every aggregate's argument
// view (or the same refusal).
func provEq(t *testing.T, label string, want, got *exec.Result) {
	t.Helper()
	wv, err := want.Provenance(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gv, err := got.Provenance(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for ri := range want.Groups {
		if w, g := wv.Rows(ri), gv.Rows(ri); !slices.Equal(w, g) {
			t.Fatalf("%s: group %d lineage %v, want %v", label, ri, g, w)
		}
		if w, g := wv.Bits(ri), gv.Bits(ri); w.Len() != g.Len() || !slices.Equal(w.Words(), g.Words()) {
			t.Fatalf("%s: group %d lineage bits differ", label, ri)
		}
	}
	for ord := range want.AggOrdinals() {
		wa, werr := wv.ArgView(ord)
		ga, gerr := gv.ArgView(ord)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s: aggregate %d view errors %v vs %v", label, ord, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !slices.Equal(wa.Null.Words(), ga.Null.Words()) || len(wa.Vals) != len(ga.Vals) {
			t.Fatalf("%s: aggregate %d views differ in NULLs or length", label, ord)
		}
		for r := range wa.Vals {
			if math.Float64bits(wa.Vals[r]) != math.Float64bits(ga.Vals[r]) && !(math.IsNaN(wa.Vals[r]) && math.IsNaN(ga.Vals[r])) {
				t.Fatalf("%s: aggregate %d row %d: %v, want %v", label, ord, r, ga.Vals[r], wa.Vals[r])
			}
		}
	}
}

// TestMatrixKeyKernels runs both matrices over the computed-key shapes
// the scan evaluates as chunk kernels, block-at-a-time: 8192-row segments
// so a fold block walks several scan blocks, one of them
// declined mid-scan (testgen.TableSegBigInt). Polling is per block: a
// scan of n rows crosses at least n/4096 checkpoints, and cancelling at
// each leaves nothing behind — the retry, and an advance retried on the
// same carried result, match the uncancelled oracle.
func TestMatrixKeyKernels(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	const segBits = 13
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 307))
		tbl := testgen.TableSegBigInt(rng, 20000+rng.Intn(8000), segBits)
		stmt := testgen.KeyKernelStmt(rng)
		oracle, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if oracle.Plan.KeyKernels == 0 {
			t.Fatalf("seed %d: no key of %s planned as a kernel", seed, stmt)
		}
		n, err := CountPolls(func(ctx context.Context) error {
			_, err := exec.Run(ctx, tbl, stmt)
			return err
		})
		if err != nil || n < tbl.NumRows()/4096 {
			t.Fatalf("seed %d: %d polls over %d rows (err %v): more than 4096 rows between checkpoints", seed, n, tbl.NumRows(), err)
		}
		for _, k := range matrixPoints(n) {
			if res, err := exec.Run(CancelAfter(k), tbl, stmt); !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("seed %d k=%d: cancelled run returned %v, %v", seed, k, res, err)
			}
		}
		retry, err := exec.Run(t.Context(), tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEq(t, fmt.Sprintf("seed %d retry [%s]", seed, stmt), oracle, retry)

		grown, err := tbl.AppendBatch(testgen.Batch(rng, 9000+rng.Intn(4000)))
		if err != nil {
			t.Fatal(err)
		}
		if oracle, err = exec.Run(t.Context(), grown, stmt); err != nil {
			t.Fatal(err)
		}
		cancelled := 0
		for k := 0; ; k++ {
			adv, err := exec.AdvanceCtx(CancelAfter(k), retry, grown)
			if err == nil {
				resultsEq(t, fmt.Sprintf("seed %d advance after %d cancelled attempts [%s]", seed, cancelled, stmt), oracle, adv)
				if !adv.Plan.Incremental {
					t.Fatalf("seed %d: the advance re-ran: %+v", seed, adv.Plan)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d k=%d: advance error %v does not wrap Canceled", seed, k, err)
			}
			cancelled++
		}
		if cancelled < 2 {
			t.Fatalf("seed %d: the suffix scan crossed only %d checkpoints", seed, cancelled)
		}
	}
}

// TestMatrixStore cancels store.AppendCtx and RetainCtx at their
// failpoints: a cancelled mutation must acknowledge nothing, publish
// nothing, write nothing — the retry appends the identical batch and a
// restart recovers exactly the acknowledged prefix.
func TestMatrixStore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mem := vfstest.NewMemFS()
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	var oracle [][]engine.Value
	appendOK := func(batch [][]engine.Value) {
		t.Helper()
		if _, err := st.AppendCtx(context.Background(), "p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	appendOK(testgen.Batch(rng, 64))

	// Measure the append matrix. The count run also appends, so record
	// its batch in the oracle.
	countBatch := testgen.Batch(rng, 8)
	n, err := CountPolls(func(ctx context.Context) error {
		_, err := st.AppendCtx(ctx, "p", countBatch)
		return err
	})
	if err != nil {
		t.Fatalf("counting append failed: %v", err)
	}
	oracle = append(oracle, countBatch...)
	if n == 0 {
		t.Fatal("AppendCtx crossed no cancellation checkpoints")
	}
	before, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		batch := testgen.Batch(rng, 8)
		if _, err := st.AppendCtx(CancelAfter(k), "p", batch); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cancelled append returned %v", k, err)
		}
		cur, err := st.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}
		if cur.Version() != before.Version() || cur.NumRows() != before.NumRows() {
			t.Fatalf("k=%d: cancelled append moved the published table %d(v%d) -> %d(v%d)",
				k, before.NumRows(), before.Version(), cur.NumRows(), cur.Version())
		}
		// The identical batch must append cleanly on retry (no fail-stop,
		// no duplicate WAL record from the cancelled attempt).
		nt, err := st.AppendCtx(context.Background(), "p", batch)
		if err != nil {
			t.Fatalf("k=%d: retry append failed: %v", k, err)
		}
		oracle = append(oracle, batch...)
		before = nt
	}

	// Cancelled retention must not drop anything.
	rowsBefore := before.NumRows()
	if _, _, err := st.RetainCtx(CancelAfter(0), "p", engine.RetentionPolicy{MaxRows: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retain returned %v", err)
	}
	cur, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumRows() != rowsBefore {
		t.Fatalf("cancelled retain dropped rows: %d -> %d", rowsBefore, cur.NumRows())
	}

	// Restart: the disk state after all those cancelled mutations must
	// recover every acknowledged row, nothing else.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open("/db", store.Options{SyncEvery: 1, FS: mem, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tab, err := st2.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(oracle) {
		t.Fatalf("recovered %d rows, acknowledged %d", tab.NumRows(), len(oracle))
	}
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if !engine.Equal(tab.Value(r, c), oracle[tab.Base()+r][c]) {
				t.Fatalf("recovered row %d col %d: %v vs %v", r, c, tab.Value(r, c), oracle[tab.Base()+r][c])
			}
		}
	}
}
