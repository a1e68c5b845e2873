package subgroup

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/predicate"
)

// plantedTable builds a table where the positive class concentrates in
// (mote >= 50 AND volt <= 2.4); other rows are negative. twin copies
// volt, so every volt selector has a twin covering the same rows.
func plantedTable(t *testing.T, n int) (*feature.Space, []bool) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "volt", engine.TFloat, "city", engine.TString, "twin", engine.TFloat))
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
			engine.NewString(cities[i%3]),
			engine.NewFloat(volt)})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{}).Discretize()
	return sp, labels
}

// precisionRecall scores a rule's cover against the labels.
func precisionRecall(sp *feature.Space, labels []bool, r Rule) (precision, recall float64) {
	covered := make(map[int]bool, len(r.Covered))
	for _, row := range r.Covered {
		covered[row] = true
	}
	pos, total := 0, 0
	for i, l := range labels {
		if l {
			total++
			if covered[sp.Frame.Rows[i]] {
				pos++
			}
		}
	}
	return float64(pos) / float64(len(r.Covered)), float64(pos) / float64(total)
}

// checkRules holds Discover's answer to its contract: a best rule, then
// at most alternatives one-selector rules, every rule's WRAcc positive
// and as its cover and the labels give it, and no two rules covering the
// same rows.
func checkRules(t *testing.T, sp *feature.Space, labels []bool, rules []Rule) {
	t.Helper()
	if len(rules) == 0 || len(rules) > 1+alternatives {
		t.Fatalf("%d rules, want 1 to %d", len(rules), 1+alternatives)
	}
	n, base := float64(len(labels)), 0.0
	for _, l := range labels {
		if l {
			base++
		}
	}
	base /= n
	for i, r := range rules {
		precision, _ := precisionRecall(sp, labels, r)
		cov := float64(len(r.Covered))
		if want := cov / n * (precision - base); r.WRAcc <= 0 || math.Abs(r.WRAcc-want) > 1e-12 {
			t.Errorf("rule %d %s: WRAcc %v, its cover gives %v", i, r.Predicate(sp), r.WRAcc, want)
		}
		if i > 0 && len(r.Selectors) != 1 {
			t.Errorf("alternative %d %s has %d selectors", i, r.Predicate(sp), len(r.Selectors))
		}
		for j, o := range rules[:i] {
			if slices.Equal(o.Covered, r.Covered) {
				t.Errorf("rules %d %s and %d %s cover the same rows", j, o.Predicate(sp), i, r.Predicate(sp))
			}
		}
	}
}

func TestDiscoverFindsPlantedSubgroup(t *testing.T) {
	sp, labels := plantedTable(t, 400)
	rules := Discover(sp, labels)
	checkRules(t, sp, labels, rules)
	// The best rule is the search's answer before alternatives existed:
	// mote >= 50 covers exactly the positive quarter.
	best := rules[0]
	if got := best.Predicate(sp).String(); got != "mote >= 50" || best.WRAcc != 0.1875 {
		t.Errorf("best rule %s, WRAcc %v; want mote >= 50, 0.1875", got, best.WRAcc)
	}
	if precision, recall := precisionRecall(sp, labels, best); precision != 1 || recall != 1 {
		t.Errorf("best rule precision %.2f recall %.2f: %s", precision, recall, best.Predicate(sp))
	}
	if len(rules) != 1+alternatives {
		t.Errorf("%d alternatives to %s, want %d", len(rules)-1, best.Predicate(sp), alternatives)
	}
	// No rule should reference the irrelevant city.
	for _, r := range rules {
		if pred := r.Predicate(sp); slices.ContainsFunc(pred.Clauses, func(c predicate.Clause) bool { return c.Col == "city" }) {
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
	checkRules(t, sp, labels, rules)
	rule := rules[0]
	if math.Abs(rule.WRAcc-0.24) > 1e-9 {
		t.Errorf("WRAcc = %v, want 0.24", rule.WRAcc)
	}
	if precision, _ := precisionRecall(sp, labels, rule); precision != 1 || len(rule.Covered) != 8 {
		t.Errorf("coverage: precision=%v covered=%d", precision, len(rule.Covered))
	}
}

func TestDiscoverDegenerateInputs(t *testing.T) {
	sp, labels := plantedTable(t, 100)
	// All positive.
	all := make([]bool, len(labels))
	for i := range all {
		all[i] = true
	}
	if rules := Discover(sp, all); rules != nil {
		t.Errorf("all-positive should yield nil, got %d rules", len(rules))
	}
	// All negative.
	none := make([]bool, len(labels))
	if rules := Discover(sp, none); rules != nil {
		t.Errorf("all-negative should yield nil, got %d rules", len(rules))
	}
	// Empty.
	if rules := Discover(sp, nil); rules != nil {
		t.Errorf("empty should yield nil, got %d rules", len(rules))
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
		t.Fatal("no rule")
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
	if precision, recall := precisionRecall(sp, labels, rules[0]); precision < 0.95 || recall < 0.9 {
		t.Errorf("rule %s: precision %.2f recall %.2f", rules[0].Predicate(sp), precision, recall)
	}
}
