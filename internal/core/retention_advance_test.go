package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// TestDebugAdvanceRetentionDifferential is the three-layer harness
// across retention horizons: append chains on a minimum-segment table
// with interleaved whole-segment drops, every step checking DebugAdvance
// over the carried chain against the oracles of advanceStep on the
// retained window. A step across a horizon (the
// base moved since the carried pass) must be a full Debug with a
// "retention:" reason; a step within one base asking the same question
// must be carried.
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
			opt := Options{DriftThreshold: math.Inf(1)} // always carry once seeded
			var prev *DebugResult
			var suspect, examples []int
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
				fresh, err := exec.RunOn(cur, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v", seed, iter, step, err)
				}
				// Suspects are output rows, which a drop renumbers: the
				// question is asked again after one, and stands otherwise.
				if suspect == nil || dropped > 0 {
					var ok bool
					if suspect, examples, ok = drawRequest(rng, fresh); !ok {
						continue
					}
				}
				label := fmt.Sprintf("seed %d iter %d step %d drop %d [%s]", seed, iter, step, dropped, stmt.String())
				req := DebugRequest{
					Result: advRes, AggItem: -1, Suspect: suspect, Examples: examples,
					Metric: metric, Opt: opt,
				}
				crossed := prev != nil && cur.Base() != prevBase
				same := !crossed && carries(prev, req)
				got := advanceStep(t, label, prev, req, fresh)
				if got == nil {
					prev, suspect = nil, nil
					continue
				}
				compared++
				if crossed && (got.Plan.Mode != "full" || !strings.HasPrefix(got.Plan.Fallback, "retention:")) {
					t.Fatalf("%s: crossed a retention horizon without a full Debug and a retention reason: %+v", label, got.Plan)
				}
				if same && got.Plan.Mode != "carried" {
					t.Fatalf("%s: the same question within one base was not carried: %+v", label, got.Plan)
				}
				if same {
					within++
					if stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
						distinct++
					}
				}
				prev, prevBase = got, cur.Base()
			}
			tbl = cur
		}
	}
	t.Logf("compared %d steps across %d retention horizons, %d carried within one base, %d carrying a count(DISTINCT s) debug", compared, horizons, within, distinct)
	if compared < 10 || horizons < 3 || within == 0 || distinct == 0 {
		t.Fatalf("harness degenerated: %d comparisons, %d horizons, %d within one base, %d DISTINCT", compared, horizons, within, distinct)
	}
}
