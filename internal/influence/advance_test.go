package influence

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/testgen"
)

// These tests pin AdvanceScorer to NewScorer: a scorer advanced across
// a chain of append batches must be bit-identical to one built from
// scratch over the grown result — F union, per-group spans, base
// aggregates, ε, and every EpsWithoutBits evaluation. The generator's
// floats are exactly representable, so equality is exact.

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

func TestAdvanceScorerDifferential(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	sawDistinct := false
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		tbl := testgen.TableSeg(rng, 80+rng.Intn(150), engine.MinSegmentBits)
		for iter := 0; iter < 6; iter++ {
			stmt := testgen.DebugStmt(rng)
			res, err := exec.RunOn(tbl, stmt)
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
			prev, err := NewScorer(res, suspect, 0, metric)
			if err != nil {
				t.Fatalf("seed %d iter %d: NewScorer: %v [%s]", seed, iter, err, stmt)
			}
			cur := tbl
			for step := 0; step < 3; step++ {
				grown, err := cur.AppendBatch(testgen.Batch(rng, testgen.BoundaryBatchSize(rng, cur)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				adv, err := exec.Advance(res, grown)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v", seed, iter, step, err)
				}
				if !adv.Plan.Incremental || adv.Plan.Fallback != "" {
					t.Fatalf("seed %d iter %d step %d: Advance re-ran without retention: %+v [%s]", seed, iter, step, adv.Plan, stmt)
				}
				// Re-draw suspects half the time: the carried F union
				// only applies to an unchanged suspect set, and the
				// changed-set path must rebuild, not mis-carry.
				if rng.Intn(2) == 0 {
					suspect = testgen.Suspects(rng, adv)
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, stmt.String())
				fresh, freshErr := NewScorer(adv, suspect, 0, metric)
				carried, carErr := AdvanceScorer(prev, adv, suspect, 0, metric)
				if freshErr != nil || carErr != nil {
					t.Fatalf("%s: fresh=%v carried=%v", label, freshErr, carErr)
				}
				scorersEqual(t, label, fresh, carried, rng)
				oracleEqual(t, label, adv, suspect, metric, carried, rng)
				prev = carried
				res, cur = adv, grown
			}
			// Next iteration draws a fresh statement (and a fresh result
			// — the old one was already advanced; chains are linear)
			// over the grown table.
			tbl = cur
		}
	}
	if !sawDistinct {
		t.Fatal("harness coverage: no trial debugged count(DISTINCT s)")
	}
}

// TestAdvanceScorerNilPrev pins the nil-prev convenience: it must be
// exactly NewScorer.
func TestAdvanceScorerNilPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := testgen.Table(rng, 120)
	stmt := testgen.DebugStmt(rng)
	res, err := exec.RunOn(tbl, stmt)
	if err != nil {
		t.Skip("generated statement rejected")
	}
	metric := testgen.Metric(rng)
	suspect := testgen.Suspects(rng, res)
	if len(suspect) == 0 {
		t.Skip("no output rows")
	}
	fresh, freshErr := NewScorer(res, suspect, 0, metric)
	adv, advErr := AdvanceScorer(nil, res, suspect, 0, metric)
	if (freshErr != nil) != (advErr != nil) {
		t.Fatalf("error disagreement: %v vs %v", freshErr, advErr)
	}
	if freshErr == nil {
		scorersEqual(t, "nil prev", fresh, adv, rng)
	}
}
