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
	rules := Discover(sp, labels)
	if len(rules) == 0 {
		t.Fatal("no rules found")
	}
	best := rules[0]
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
	rules := Discover(sp, labels)
	if len(rules) == 0 {
		t.Fatal("no rule")
	}
	if math.Abs(rules[0].WRAcc-0.24) > 1e-9 {
		t.Errorf("WRAcc = %v, want 0.24", rules[0].WRAcc)
	}
	if rules[0].Pos != 8 || len(rules[0].Covered) != 8 {
		t.Errorf("coverage: pos=%d covered=%d", rules[0].Pos, len(rules[0].Covered))
	}
}

func TestWeightedCoveringProducesDiverseRules(t *testing.T) {
	// Two disjoint positive clusters: mote>=80 and city='X'. Covering
	// should emit rules for both.
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "city", engine.TString))
	var labels []bool
	rng := rand.New(rand.NewSource(8))
	var rows [][]engine.Value
	for i := 0; i < 300; i++ {
		var mote int64
		city := "Y"
		pos := false
		switch {
		case i%6 == 0: // cluster 1
			mote = 80 + rng.Int63n(10)
			pos = true
		case i%6 == 1: // cluster 2
			mote = rng.Int63n(40)
			city = "X"
			pos = true
		default:
			mote = rng.Int63n(40)
		}
		rows = append(rows, []engine.Value{engine.NewInt(mote), engine.NewString(city)})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{}).Discretize()
	rules := Discover(sp, labels)
	if len(rules) < 2 {
		t.Fatalf("expected >=2 rules, got %d", len(rules))
	}
	foundMote, foundCity := false, false
	for _, r := range rules {
		p := r.Predicate(sp).String()
		if containsCol(r.Predicate(sp), "mote") {
			foundMote = true
		}
		if containsCol(r.Predicate(sp), "city") {
			foundCity = true
		}
		_ = p
	}
	if !foundMote || !foundCity {
		t.Errorf("covering missed a cluster: mote=%v city=%v", foundMote, foundCity)
	}
}

func containsCol(p predicate.Predicate, col string) bool {
	for _, c := range p.Columns() {
		if c == col {
			return true
		}
	}
	return false
}

func TestDiscoverDegenerateInputs(t *testing.T) {
	sp, labels := plantedTable(t, 100)
	// All positive.
	all := make([]bool, len(labels))
	for i := range all {
		all[i] = true
	}
	if rules := Discover(sp, all); rules != nil {
		t.Error("all-positive should yield no rules")
	}
	// All negative.
	none := make([]bool, len(labels))
	if rules := Discover(sp, none); rules != nil {
		t.Error("all-negative should yield no rules")
	}
	// Empty.
	if rules := Discover(sp, nil); rules != nil {
		t.Error("empty should yield no rules")
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
	rules := Discover(sp, labels)
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	for _, sel := range rules[0].Selectors {
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
	rules := Discover(sp, labels)
	if len(rules) == 0 {
		t.Fatal("the greedy search found nothing")
	}
	if rules[0].Precision < 0.95 || rules[0].Recall < 0.9 {
		t.Errorf("first rule %s: precision %.2f recall %.2f", rules[0].Predicate(sp), rules[0].Precision, rules[0].Recall)
	}
}
