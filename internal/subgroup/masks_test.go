package subgroup

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/predicate"
)

// floatCompareMasks is selectorMasks as it was before the numeric masks
// came from Bins: one pass over the float column per selector, comparing
// against the selector's value (NaN and NULL compare false). It is the
// oracle TestSelectorMasksFromBins holds the bucket-built masks to.
func floatCompareMasks(sp *feature.Space, selectors []Selector) []*bitset.Bitset {
	fr := sp.Frame
	n := len(fr.Rows)
	matches := make([]*bitset.Bitset, len(selectors))
	for si, sel := range selectors {
		m := bitset.New(n)
		for i := 0; i < n; i++ {
			var hit bool
			switch f, t := fr.Floats[sel.AttrIdx], sel.Val.Float(); sel.Op {
			case predicate.OpEq:
				hit = fr.Bins[sel.AttrIdx][i] == sel.slot
			case predicate.OpLe:
				hit = f[i] <= t
			default:
				hit = f[i] >= t
			}
			if hit {
				m.Set(i)
			}
		}
		matches[si] = m
	}
	return matches
}

// TestSelectorMasksFromBins: the masks built from the bucket matrix equal
// the float-compare loops bit for bit, on columns holding NULL, NaN, ±0,
// ±Inf and many values equal to a threshold (few distinct values), over
// the whole table and over a subset with repeats.
func TestSelectorMasksFromBins(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"f", engine.TFloat, "few", engine.TFloat, "i", engine.TInt, "ts", engine.TTime, "s", engine.TString))
	specials := []engine.Value{engine.Null, engine.NewFloat(math.NaN()), engine.NewFloat(0),
		engine.NewFloat(math.Copysign(0, -1)), engine.NewFloat(math.Inf(1)), engine.NewFloat(math.Inf(-1))}
	var rows [][]engine.Value
	for r := 0; r < 3000; r++ {
		f := engine.NewFloat(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			f = specials[rng.Intn(len(specials))]
		}
		few := engine.NewFloat(float64(rng.Intn(5)) - 2)
		if rng.Intn(6) == 0 {
			few = specials[rng.Intn(len(specials))]
		}
		i := engine.NewInt(int64(rng.Intn(40)))
		if rng.Intn(10) == 0 {
			i = engine.Null
		}
		rows = append(rows, []engine.Value{f, few, i, engine.NewTimeUnix(int64(1e9 + r*30)), engine.NewString(string(rune('a' + rng.Intn(4))))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]int, 2000)
	for k := range subset {
		subset[k] = rng.Intn(tbl.NumRows())
	}
	for _, rows := range [][]int{nil, subset} {
		sp := feature.NewSpace(tbl, feature.Options{Rows: rows}).Discretize()
		selectors := Selectors(sp)
		got, want := selectorMasks(sp, selectors), floatCompareMasks(sp, selectors)
		numeric := 0
		for si, sel := range selectors {
			if sel.Op != predicate.OpEq {
				numeric++
			}
			if got[si].Count() != want[si].Count() || bitset.AndCount(got[si], want[si]) != want[si].Count() {
				t.Fatalf("rows %d: selector %s %v %v: %d matches, the float compare gives %d",
					len(sp.Frame.Rows), sp.Attrs[sel.AttrIdx].Name, sel.Op, sel.Val, got[si].Count(), want[si].Count())
			}
		}
		if numeric < 40 {
			t.Fatalf("only %d numeric selectors: the test lost its subject", numeric)
		}
	}
}
