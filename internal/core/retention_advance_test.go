package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// TestDebugAdvanceRetentionDifferential is the three-layer harness
// across retention horizons: append chains on a minimum-segment table
// with interleaved whole-segment drops, every step comparing
// DebugAdvance over the carried chain against a from-scratch Debug of
// the retained window (oracle mode, forced shard count). The Debug
// output must be bit-identical either way; a step across a horizon
// (the base moved since the carried pass) must be a full Debug with a
// "retention:" reason, and a step within one base must not be.
func TestDebugAdvanceRetentionDifferential(t *testing.T) {
	const seeds, iters = 4, 3
	compared, horizons, within, distinct := 0, 0, 0, 0
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
			prevBase := 0
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
				crossed := prev != nil && cur.Base() != prevBase
				if crossed && (got.Plan.Mode != "full" || !strings.HasPrefix(got.Plan.Fallback, "retention:")) {
					t.Fatalf("%s: crossed a retention horizon without a full Debug and a retention reason: %+v", label, got.Plan)
				}
				if prev != nil && !crossed && got.Plan.Mode == "full" {
					t.Fatalf("%s: advance within one base fell back to a full Debug: %+v", label, got.Plan)
				}
				if prev != nil && !crossed {
					within++
				}
				if prev != nil && stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
					distinct++
				}
				prev, prevBase = got, cur.Base()
			}
			tbl = cur
		}
	}
	t.Logf("compared %d steps across %d retention horizons, %d advancing within one base, %d advancing a count(DISTINCT s) debug", compared, horizons, within, distinct)
	if compared < 10 || horizons < 3 || within == 0 || distinct == 0 {
		t.Fatalf("harness degenerated: %d comparisons, %d horizons, %d within one base, %d DISTINCT", compared, horizons, within, distinct)
	}
}
