package subgroup

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/predicate"
)

// plantedTable builds a table where the positive class concentrates in
// (mote >= 50 AND volt <= 2.4); other rows are negative.
func plantedTable(t *testing.T, n int) (*feature.Space, []bool) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "volt", engine.TFloat, "city", engine.TString))
	rng := rand.New(rand.NewSource(5))
	cities := []string{"A", "B", "C"}
	labels := make([]bool, 0, n)
	var rows [][]engine.Value
	for i := 0; i < n; i++ {
		var mote int64
		var volt float64
		pos := i%4 == 0 // 25% positive
		if pos {
			mote = 50 + rng.Int63n(10)
			volt = 2.2 + rng.Float64()*0.2
		} else {
			mote = rng.Int63n(50)
			volt = 2.5 + rng.Float64()*0.3
		}
		rows = append(rows, []engine.Value{
			engine.NewInt(mote),
			engine.NewFloat(volt),
			engine.NewString(cities[i%3])})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{}).Discretize()
	return sp, labels
}

func TestDiscoverFindsPlantedSubgroup(t *testing.T) {
	sp, labels := plantedTable(t, 400)
	best, ok := Discover(sp, labels)
	if !ok {
		t.Fatal("no rule found")
	}
	if best.Precision < 0.95 {
		t.Errorf("best rule precision %.2f: %s", best.Precision, best.Predicate(sp))
	}
	if best.Recall < 0.9 {
		t.Errorf("best rule recall %.2f", best.Recall)
	}
	// The rule should reference mote and/or volt, not city.
	pred := best.Predicate(sp)
	for _, col := range pred.Columns() {
		if col == "city" {
			t.Errorf("rule references irrelevant city: %s", pred)
		}
	}
}

func TestWRAccComputation(t *testing.T) {
	// Hand-checkable case: 20 rows, 8 positive, one selector covering
	// exactly the positives. WRAcc = (8/20)*(1 - 8/20) = 0.24, the
	// maximum for this base rate.
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TInt))
	labels := make([]bool, 20)
	var rows [][]engine.Value
	for i := 0; i < 20; i++ {
		v := int64(0)
		if i < 8 {
			v = 1
			labels[i] = true
		}
		rows = append(rows, []engine.Value{engine.NewInt(v)})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{}).Discretize()
	rule, ok := Discover(sp, labels)
	if !ok {
		t.Fatal("no rule")
	}
	if math.Abs(rule.WRAcc-0.24) > 1e-9 {
		t.Errorf("WRAcc = %v, want 0.24", rule.WRAcc)
	}
	if rule.Pos != 8 || len(rule.Covered) != 8 {
		t.Errorf("coverage: pos=%d covered=%d", rule.Pos, len(rule.Covered))
	}
}

func TestDiscoverDegenerateInputs(t *testing.T) {
	sp, labels := plantedTable(t, 100)
	// All positive.
	all := make([]bool, len(labels))
	for i := range all {
		all[i] = true
	}
	if _, ok := Discover(sp, all); ok {
		t.Error("all-positive should yield no rule")
	}
	// All negative.
	none := make([]bool, len(labels))
	if _, ok := Discover(sp, none); ok {
		t.Error("all-negative should yield no rule")
	}
	// Empty.
	if _, ok := Discover(sp, nil); ok {
		t.Error("empty should yield no rule")
	}
}

func TestSelectorsVocabulary(t *testing.T) {
	sp, _ := plantedTable(t, 200)
	sels := Selectors(sp)
	if len(sels) == 0 {
		t.Fatal("no selectors")
	}
	hasEq, hasLe, hasGe := false, false, false
	for _, s := range sels {
		switch s.Op {
		case predicate.OpEq:
			hasEq = true
		case predicate.OpLe:
			hasLe = true
		case predicate.OpGe:
			hasGe = true
		}
	}
	if !hasEq || !hasLe || !hasGe {
		t.Errorf("selector ops: eq=%v le=%v ge=%v", hasEq, hasLe, hasGe)
	}
}

func TestIntThresholdsRenderAsInts(t *testing.T) {
	sp, labels := plantedTable(t, 300)
	rule, ok := Discover(sp, labels)
	if !ok {
		t.Fatal("no rule")
	}
	for _, sel := range rule.Selectors {
		attr := sp.Attrs[sel.AttrIdx]
		if attr.Name == "mote" && sel.Val.T != engine.TInt {
			t.Errorf("mote threshold type %v", sel.Val.T)
		}
	}
}

// The search keeps one partial rule per depth (a beam of width one); it
// must still reach the planted two-clause subgroup.
func TestBeamWidthOne(t *testing.T) {
	sp, labels := plantedTable(t, 200)
	rule, ok := Discover(sp, labels)
	if !ok {
		t.Fatal("the greedy search found nothing")
	}
	if rule.Precision < 0.95 || rule.Recall < 0.9 {
		t.Errorf("rule %s: precision %.2f recall %.2f", rule.Predicate(sp), rule.Precision, rule.Recall)
	}
}
