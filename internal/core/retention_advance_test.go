package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// TestDebugAdvanceRetentionDifferential is the three-layer harness
// across retention horizons: append chains on a minimum-segment table
// with interleaved whole-segment drops, every step comparing
// DebugAdvance over the carried chain against a from-scratch Debug of
// the retained window (oracle mode, forced shard count). The chain's
// exec.Advance may rebase or fall back per statement; either way the
// Debug output must be bit-identical, and a step across a horizon must
// record the retention reason when it kept the incremental path.
func TestDebugAdvanceRetentionDifferential(t *testing.T) {
	seeds := int64(4)
	iters := 3
	if testing.Short() {
		seeds, iters = 2, 2
	}
	compared, horizons, distinct := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 919))
		tbl := testgen.TableSeg(rng, 100+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < iters; iter++ {
			stmt := debugStmt(rng, iter == 0)
			advRes, err := exec.RunOn(tbl, stmt)
			if err != nil {
				continue
			}
			metric := testgen.Metric(rng)
			opt := Options{DriftThreshold: -1} // oracle mode: always re-expand
			var prev *DebugResult
			cur := tbl
			for step := 0; step < 4; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, testgen.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				cur = grown
				dropped := 0
				if rng.Intn(2) == 0 {
					cur, dropped = testgen.RetainStep(rng, cur)
					if dropped > 0 {
						horizons++
					}
				}
				advRes, err = exec.Advance(advRes, cur)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				fresh, err := exec.RunOnWithCtx(context.Background(), cur, stmt, exec.Options{Shards: 4})
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v", seed, iter, step, err)
				}
				suspect, examples, ok := drawRequest(rng, fresh)
				if !ok {
					continue
				}
				label := fmt.Sprintf("seed %d iter %d step %d drop %d [%s]", seed, iter, step, dropped, stmt.String())

				want, wantErr := Debug(DebugRequest{
					Result: fresh, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				})
				got, gotErr := DebugAdvance(prev, DebugRequest{
					Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				})
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s: error disagreement:\nfresh: %v\nincremental: %v", label, wantErr, gotErr)
				}
				if wantErr != nil {
					prev = nil
					continue
				}
				debugResultsEqual(t, label, want, got)
				compared++
				if dropped > 0 && got.Plan.Incremental && got.Plan.Fallback == "" {
					t.Fatalf("%s: crossed a retention horizon incrementally without recording it: %+v", label, got.Plan)
				}
				if prev != nil && got.Plan.Mode == "full" {
					t.Fatalf("%s: advance fell back to a full Debug: %+v", label, got.Plan)
				}
				if prev != nil && stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
					distinct++
				}
				prev = got
			}
			tbl = cur
		}
	}
	t.Logf("compared %d steps across %d retention horizons, %d advancing a count(DISTINCT s) debug", compared, horizons, distinct)
	minCompared, minHorizons := 10, 3
	if testing.Short() {
		minCompared, minHorizons = 4, 1
	}
	if compared < minCompared || horizons < minHorizons || distinct == 0 {
		t.Fatalf("harness degenerated: %d comparisons, %d horizons, %d DISTINCT", compared, horizons, distinct)
	}
}
