package chaos

// The out-of-core cancellation matrix: run a sharded scan over a
// lazily-attached table behind a deliberately tiny buffer pool, cancel
// it at every cancellation checkpoint, and require that every aborted
// attempt (a) surfaces context.Canceled, (b) leaves ZERO chunks
// pinned — a shard killed between faulting a chunk and finishing its
// range must still release its segment cursors — and (c) leaves the
// table fully usable: an uncancelled retry is bit-identical to the
// fully resident oracle.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/testgen"
)

func TestMatrixOutOfCorePins(t *testing.T) {
	quiet := func(string, ...any) {}
	fs := store.NewMemFS()

	rng := rand.New(rand.NewSource(31))
	seedSt, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedSt.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, 6000)
	for i := range rows {
		rows[i] = testgen.Row(rng)
	}
	if _, err := seedSt.Append("p", rows); err != nil {
		t.Fatal(err)
	}
	if err := seedSt.Close(); err != nil {
		t.Fatal(err)
	}

	// Resident oracle first, then the out-of-core table under test.
	oracleSt, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet})
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
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet, MaxResidentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}

	opts := exec.Options{Shards: 4}
	cases := 0
	for s := int64(1); s <= 3; s++ {
		stmt := testgen.DebugStmt(rand.New(rand.NewSource(s * 17)))
		oracle, err := exec.RunOnWithCtx(context.Background(), oracleTbl, stmt, opts)
		if err != nil {
			continue
		}
		n, err := CountPolls(func(ctx context.Context) error {
			_, err := exec.RunOnWithCtx(ctx, tbl, stmt, opts)
			return err
		})
		if err != nil {
			t.Fatalf("stmt %d: counting run failed: %v", s, err)
		}
		if got := st.PoolPinned(); got != 0 {
			t.Fatalf("stmt %d: %d chunks pinned after clean run", s, got)
		}
		for _, k := range matrixPoints(n) {
			res, err := exec.RunOnWithCtx(CancelAfter(k), tbl, stmt, opts)
			if err == nil {
				t.Fatalf("stmt %d k=%d: cancelled run succeeded", s, k)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stmt %d k=%d: error %v does not wrap Canceled", s, k, err)
			}
			if res != nil {
				t.Fatalf("stmt %d k=%d: cancelled run returned a result", s, k)
			}
			if got := st.PoolPinned(); got != 0 {
				t.Fatalf("stmt %d k=%d: cancellation leaked %d pinned chunks", s, k, got)
			}
			retry, err := exec.RunOnWithCtx(context.Background(), tbl, stmt, opts)
			if err != nil {
				t.Fatalf("stmt %d k=%d: retry failed: %v", s, k, err)
			}
			resultsEq(t, fmt.Sprintf("stmt %d k=%d [%s]", s, k, stmt.String()), oracle, retry)
			cases++
		}
	}
	if cases < 3 {
		t.Fatalf("matrix degenerated: only %d cancelled cases", cases)
	}
	stats := st.Stats()
	if stats.Pool == nil || stats.Pool.Misses == 0 {
		t.Fatalf("matrix never faulted a chunk: %+v", stats.Pool)
	}
}
