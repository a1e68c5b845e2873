package influence

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// These tests pin a scorer over an advanced result — built from the
// lineage bitsets and argument view exec.AdvanceCtx carried — to one built
// over a from-scratch run of the grown table: F union, per-group spans,
// base aggregates, ε, and every EpsWithoutBits evaluation. The
// generator's floats are exactly representable, so equality is exact.

func scorersEqual(t *testing.T, label string, a, b *Scorer, rng *rand.Rand) {
	t.Helper()
	if a.nsrc != b.nsrc {
		t.Fatalf("%s: nsrc %d vs %d", label, a.nsrc, b.nsrc)
	}
	if a.eps != b.eps && !(math.IsNaN(a.eps) && math.IsNaN(b.eps)) {
		t.Fatalf("%s: eps %v vs %v", label, a.eps, b.eps)
	}
	for i := range a.base {
		if a.base[i] != b.base[i] && !(math.IsNaN(a.base[i]) && math.IsNaN(b.base[i])) {
			t.Fatalf("%s: base[%d] %v vs %v", label, i, a.base[i], b.base[i])
		}
	}
	aw, bw := a.fbits.Words(), b.fbits.Words()
	if len(aw) != len(bw) {
		t.Fatalf("%s: fbits %d vs %d words", label, len(aw), len(bw))
	}
	for wi := range aw {
		if aw[wi] != bw[wi] {
			t.Fatalf("%s: fbits word %d: %x vs %x", label, wi, aw[wi], bw[wi])
		}
	}
	if len(a.groups) != len(b.groups) {
		t.Fatalf("%s: %d vs %d groups", label, len(a.groups), len(b.groups))
	}
	for gi := range a.groups {
		ga, gb := a.groups[gi], b.groups[gi]
		if ga.empty != gb.empty || ga.lo != gb.lo || ga.hi != gb.hi {
			t.Fatalf("%s: group %d span (%d,%d,%v) vs (%d,%d,%v)",
				label, gi, ga.lo, ga.hi, ga.empty, gb.lo, gb.hi, gb.empty)
		}
	}
	// ε-without on random masks must agree exactly.
	sa, sb := a.NewScratch(), b.NewScratch()
	for k := 0; k < 8; k++ {
		mask := bitset.New(a.nsrc)
		for r := 0; r < a.nsrc; r++ {
			if rng.Float64() < 0.3 {
				mask.Set(r)
			}
		}
		ea, eb := a.EpsWithoutBits(mask, sa), b.EpsWithoutBits(mask, sb)
		if ea != eb && !(math.IsNaN(ea) && math.IsNaN(eb)) {
			t.Fatalf("%s: EpsWithoutBits %v vs %v", label, ea, eb)
		}
	}
}

// oracleEqual pins sc's ε-without on a random removal set to the boxed
// reference over the same result.
func oracleEqual(t *testing.T, label string, res *exec.Result, suspect []int, metric errmetric.Metric, sc *Scorer, rng *rand.Rand) {
	t.Helper()
	var rows []int
	for r := 0; r < sc.nsrc; r++ {
		if rng.Intn(3) == 0 {
			rows = append(rows, r)
		}
	}
	want, err := EpsWithoutRows(res, suspect, 0, metric, rows)
	if err != nil {
		t.Fatalf("%s: EpsWithoutRows: %v", label, err)
	}
	if got := sc.EpsWithoutBits(bitset.FromRows(sc.nsrc, rows), sc.NewScratch()); !floatsEqual(want, got) {
		t.Fatalf("%s: EpsWithoutRows=%v EpsWithoutBits=%v", label, want, got)
	}
}

// analysesEqual pins an analysis to the one a full LOO pass over a
// from-scratch scorer produces: ε, F and every influence, in order.
func analysesEqual(t *testing.T, label string, want, got *Analysis) {
	t.Helper()
	if !floatsEqual(want.Eps, got.Eps) || !slices.Equal(want.F, got.F) || len(want.Influences) != len(got.Influences) {
		t.Fatalf("%s: eps %v vs %v, |F| %d vs %d, %d vs %d influences", label,
			want.Eps, got.Eps, len(want.F), len(got.F), len(want.Influences), len(got.Influences))
	}
	for i, w := range want.Influences {
		if g := got.Influences[i]; w.Row != g.Row || w.GroupRow != g.GroupRow || !floatsEqual(w.Delta, g.Delta) {
			t.Fatalf("%s: influence[%d] %+v vs %+v", label, i, g, w)
		}
	}
}

// TestAdvanceScorerDifferential also pins RankAdvancedCtx, the analysis
// over the advanced result's scorer: whether it shares the previous
// pass's ranking (no suspect group grew) or runs the LOO pass again, it
// equals the LOO pass over the from-scratch scorer — and it shares
// exactly when the suspects and their lineages are the previous pass's.
func TestAdvanceScorerDifferential(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	sawDistinct, shared, recomputed := false, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		tbl := testgen.TableSeg(rng, 80+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < 6; iter++ {
			stmt := testgen.DebugStmt(rng)
			res, err := exec.Run(t.Context(), tbl, stmt)
			if err != nil {
				continue
			}
			metric := testgen.Metric(rng)
			suspect := testgen.Suspects(rng, res)
			if len(suspect) == 0 {
				continue
			}
			// DebugStmt's first aggregate is the debugged one; count(DISTINCT
			// s) among them scores through the same Scorer as the rest.
			sawDistinct = sawDistinct || stmt.Items[len(stmt.GroupBy)].Agg.Distinct
			prevAn, err := RankCtx(context.Background(), res, suspect, 0, metric)
			if err != nil {
				t.Fatalf("seed %d iter %d: RankCtx: %v [%s]", seed, iter, err, stmt)
			}
			cur := tbl
			for step := 0; step < 4; step++ {
				batch := testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, cur))
				if step%2 == 1 {
					// Keys no generator draws: the batch founds groups and
					// grows none, whatever the statement groups by.
					for _, r := range batch {
						r[0], r[1] = engine.NewInt(int64(1000+3*step)), engine.NewInt(int64(100+step))
						r[3] = engine.NewString(fmt.Sprintf("fresh%d", step))
					}
				}
				grown, err := cur.AppendBatch(batch)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				adv, err := exec.AdvanceCtx(t.Context(), res, grown)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				if !adv.Plan.Incremental || adv.Plan.Fallback != "" {
					t.Fatalf("seed %d iter %d step %d: Advance re-ran without retention: %+v [%s]", seed, iter, step, adv.Plan, stmt)
				}
				// Re-draw suspects a third of the time: the previous ranking
				// is shared only for an unchanged suspect set, and a changed
				// set must re-rank, not mis-share.
				same := true
				if rng.Intn(3) == 0 {
					redrawn := testgen.Suspects(rng, adv)
					same, suspect = slices.Equal(redrawn, suspect), redrawn
				}
				for _, ri := range suspect {
					same = same && ri < len(res.Groups) && adv.Groups[ri].Rows == res.Groups[ri].Rows
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, stmt.String())
				ref, err := exec.Run(t.Context(), grown, stmt)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", label, err)
				}
				fresh, freshErr := NewScorer(ref, suspect, 0, metric)
				carried, carErr := NewScorer(adv, suspect, 0, metric)
				if freshErr != nil || carErr != nil {
					t.Fatalf("%s: fresh=%v carried=%v", label, freshErr, carErr)
				}
				scorersEqual(t, label, fresh, carried, rng)
				oracleEqual(t, label, adv, suspect, metric, carried, rng)

				an, err := RankAdvancedCtx(context.Background(), prevAn, carried)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := rankFast(context.Background(), fresh)
				analysesEqual(t, label, want, an)
				if an.Scorer != carried {
					t.Fatalf("%s: the analysis is not over the advanced scorer", label)
				}
				if kept := len(an.Influences) > 0 && &an.Influences[0] == &prevAn.Influences[0]; kept != (same && len(an.Influences) > 0) {
					t.Fatalf("%s: same suspects and lineages %v, previous ranking kept %v", label, same, kept)
				} else if kept {
					shared++
				} else {
					recomputed++
				}
				prevAn = an
				res, cur = adv, grown
			}
			// Next iteration draws a fresh statement (and a fresh result)
			// over the grown table.
			tbl = cur
		}
	}
	if !sawDistinct {
		t.Fatal("harness coverage: no trial debugged count(DISTINCT s)")
	}
	if shared == 0 || recomputed == 0 {
		t.Fatalf("harness coverage: %d analyses shared the previous ranking, %d recomputed it", shared, recomputed)
	}
}
