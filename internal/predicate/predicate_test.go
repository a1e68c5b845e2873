package predicate

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/expr"
)

func sampleTable(t *testing.T) *engine.Table {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "volt", engine.TFloat, "memo", engine.TString))
	rows := []struct {
		mote int64
		volt float64
		memo string
	}{
		{1, 2.7, ""}, {2, 2.6, ""}, {15, 2.3, "BAD"}, {15, 2.2, "BAD"}, {3, 2.65, "REFUND"},
	}
	var vals [][]engine.Value
	for _, r := range rows {
		vals = append(vals, []engine.Value{engine.NewInt(r.mote), engine.NewFloat(r.volt), engine.NewString(r.memo)})
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestClauseMatches(t *testing.T) {
	c := Clause{Col: "x", Op: OpLe, Val: engine.NewFloat(2.4)}
	if !c.Matches(engine.NewFloat(2.3)) || c.Matches(engine.NewFloat(2.5)) {
		t.Error("OpLe wrong")
	}
	if c.Matches(engine.Null) {
		t.Error("NULL should never match")
	}
	eq := Clause{Col: "m", Op: OpEq, Val: engine.NewString("BAD")}
	if !eq.Matches(engine.NewString("BAD")) || eq.Matches(engine.NewString("GOOD")) {
		t.Error("OpEq wrong")
	}
	neq := Clause{Col: "m", Op: OpNeq, Val: engine.NewString("BAD")}
	if neq.Matches(engine.NewString("BAD")) || !neq.Matches(engine.NewString("GOOD")) {
		t.Error("OpNeq wrong")
	}
	// Incomparable types never match.
	if eq.Matches(engine.NewInt(5)) {
		t.Error("string clause matched int")
	}
	like := Clause{Col: "m", Op: OpLike, Val: engine.NewString("_AD%")}
	if !like.Matches(engine.NewString("BAD")) || like.Matches(engine.NewString("ABAD")) || like.Matches(engine.Null) {
		t.Error("OpLike wrong")
	}
	if like.Matches(engine.NewInt(5)) {
		t.Error("LIKE clause matched a number")
	}
}

// A LIKE clause survives Simplify and ToExpr as it was written:
// only an exact duplicate drops, and it evaluates like the clause.
func TestLikeClauseVerbatim(t *testing.T) {
	like := Clause{Col: "memo", Op: OpLike, Val: engine.NewString("%UN%")}
	p := New(like, Clause{Col: "mote", Op: OpGe, Val: engine.NewInt(2)}, like,
		Clause{Col: "memo", Op: OpNeq, Val: engine.NewString("")})
	s, ok := p.Simplify()
	if !ok || s.Len() != 3 || s.Clauses[0] != like {
		t.Fatalf("Simplify(%s) = %s, %v: want the LIKE kept once", p, s, ok)
	}
	if got, want := like.String(), "memo LIKE '%UN%'"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	tbl := sampleTable(t)
	if got := p.MatchingRows(tbl, nil); len(got) != 1 || got[0] != 4 {
		t.Fatalf("MatchingRows = %v, want [4] (REFUND)", got)
	}
	e := p.ToExpr()
	if err := e.Resolve(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		if ok, err := expr.EvalBool(e, tbl.Row(r)); err != nil || ok != p.MatchesRow(tbl, r) {
			t.Errorf("row %d: ToExpr %s = %v (%v), MatchesRow %v", r, e, ok, err, p.MatchesRow(tbl, r))
		}
	}
}

func TestPredicateMatchingRows(t *testing.T) {
	tbl := sampleTable(t)
	p := New(
		Clause{Col: "mote", Op: OpEq, Val: engine.NewInt(15)},
		Clause{Col: "volt", Op: OpLe, Val: engine.NewFloat(2.25)},
	)
	rows := p.MatchingRows(tbl, nil)
	if len(rows) != 1 || rows[0] != 3 {
		t.Errorf("matching: %v", rows)
	}
	subset := p.MatchingRows(tbl, []int{0, 1, 2})
	if len(subset) != 0 {
		t.Errorf("subset matching: %v", subset)
	}
}

func TestBinderUnknownColumn(t *testing.T) {
	tbl := sampleTable(t)
	p := New(Clause{Col: "nosuch", Op: OpEq, Val: engine.NewInt(1)})
	if got := p.MatchingRows(tbl, nil); len(got) != 0 {
		t.Errorf("unknown column matched: %v", got)
	}
}

func TestTruePredicate(t *testing.T) {
	tbl := sampleTable(t)
	p := Predicate{}
	if !p.IsTrue() || p.String() != "TRUE" {
		t.Error("zero predicate should be TRUE")
	}
	if got := p.MatchingRows(tbl, nil); len(got) != tbl.NumRows() {
		t.Errorf("TRUE matched %d rows", len(got))
	}
}

func TestSimplifyBounds(t *testing.T) {
	p := New(
		Clause{Col: "x", Op: OpGe, Val: engine.NewInt(3)},
		Clause{Col: "x", Op: OpGe, Val: engine.NewInt(5)},
		Clause{Col: "x", Op: OpLe, Val: engine.NewInt(10)},
	)
	s, ok := p.Simplify()
	if !ok {
		t.Fatal("contradiction reported")
	}
	if s.Len() != 2 {
		t.Fatalf("simplified: %s", s)
	}
	if s.String() != "x >= 5 AND x <= 10" {
		t.Errorf("simplified: %s", s)
	}
}

func TestSimplifyContradiction(t *testing.T) {
	p := New(
		Clause{Col: "x", Op: OpGe, Val: engine.NewInt(5)},
		Clause{Col: "x", Op: OpLe, Val: engine.NewInt(3)},
	)
	if _, ok := p.Simplify(); ok {
		t.Error("x>=5 AND x<=3 not detected as contradiction")
	}
	p2 := New(
		Clause{Col: "x", Op: OpEq, Val: engine.NewInt(5)},
		Clause{Col: "x", Op: OpEq, Val: engine.NewInt(6)},
	)
	if _, ok := p2.Simplify(); ok {
		t.Error("x=5 AND x=6 not detected")
	}
	p3 := New(
		Clause{Col: "x", Op: OpEq, Val: engine.NewInt(5)},
		Clause{Col: "x", Op: OpNeq, Val: engine.NewInt(5)},
	)
	if _, ok := p3.Simplify(); ok {
		t.Error("x=5 AND x!=5 not detected")
	}
}

func TestSimplifyEqSupersedesBounds(t *testing.T) {
	p := New(
		Clause{Col: "x", Op: OpEq, Val: engine.NewInt(5)},
		Clause{Col: "x", Op: OpGe, Val: engine.NewInt(3)},
	)
	s, ok := p.Simplify()
	if !ok || s.Len() != 1 || s.Clauses[0].Op != OpEq {
		t.Errorf("eq supersede: %s ok=%v", s, ok)
	}
}

// Property: simplification preserves semantics over random tables.
func TestSimplifyPreservesSemantics(t *testing.T) {
	tbl := sampleTable(t)
	ops := []Op{OpEq, OpNeq, OpLe, OpGe, OpLt, OpGt}
	f := func(rawOps []uint8, rawVals []int8) bool {
		n := len(rawOps)
		if n == 0 || len(rawVals) < n {
			return true
		}
		if n > 4 {
			n = 4
		}
		var p Predicate
		for i := 0; i < n; i++ {
			p = p.And(Clause{
				Col: "mote",
				Op:  ops[int(rawOps[i])%len(ops)],
				Val: engine.NewInt(int64(rawVals[i] % 20)),
			})
		}
		s, ok := p.Simplify()
		orig := p.MatchingRows(tbl, nil)
		if !ok {
			// Contradiction: original must match nothing.
			return len(orig) == 0
		}
		simp := s.MatchingRows(tbl, nil)
		if len(orig) != len(simp) {
			return false
		}
		for i := range orig {
			if orig[i] != simp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ToExpr evaluates identically to MatchesRow.
func TestToExprEquivalence(t *testing.T) {
	tbl := sampleTable(t)
	preds := []Predicate{
		New(Clause{Col: "mote", Op: OpEq, Val: engine.NewInt(15)}),
		New(Clause{Col: "volt", Op: OpLe, Val: engine.NewFloat(2.4)},
			Clause{Col: "memo", Op: OpEq, Val: engine.NewString("BAD")}),
		New(Clause{Col: "memo", Op: OpNeq, Val: engine.NewString("")}),
		{},
	}
	for _, p := range preds {
		e := p.ToExpr()
		if err := e.Resolve(tbl.Schema()); err != nil {
			t.Fatalf("resolve %s: %v", e, err)
		}
		for r := 0; r < tbl.NumRows(); r++ {
			ok, err := expr.EvalBool(e, tbl.Row(r))
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if ok != p.MatchesRow(tbl, r) {
				t.Errorf("pred %s row %d: expr=%v pred=%v", p, r, ok, p.MatchesRow(tbl, r))
			}
		}
	}
}

func TestNegationExpr(t *testing.T) {
	tbl := sampleTable(t)
	p := New(Clause{Col: "memo", Op: OpEq, Val: engine.NewString("BAD")})
	ne := p.NegationExpr()
	if err := ne.Resolve(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for r := 0; r < tbl.NumRows(); r++ {
		ok, _ := expr.EvalBool(ne, tbl.Row(r))
		if ok {
			kept++
		}
	}
	if kept != 3 {
		t.Errorf("negation kept %d rows, want 3", kept)
	}
}

func TestColumns(t *testing.T) {
	p := New(
		Clause{Col: "a", Op: OpEq, Val: engine.NewInt(1)},
		Clause{Col: "b", Op: OpEq, Val: engine.NewInt(2)},
		Clause{Col: "A", Op: OpGe, Val: engine.NewInt(0)},
	)
	cols := p.Columns()
	if len(cols) != 2 {
		t.Errorf("Columns: %v", cols)
	}
}

func TestStringRendering(t *testing.T) {
	p := New(
		Clause{Col: "memo", Op: OpEq, Val: engine.NewString("REATTRIBUTION TO SPOUSE")},
		Clause{Col: "amount", Op: OpLt, Val: engine.NewFloat(0)},
	)
	// Float literals render with an explicit float marker ("0.0", not
	// "0") so predicate SQL survives a parse → print → parse round trip
	// (bare "0" re-parses as an integer literal).
	want := "memo = 'REATTRIBUTION TO SPOUSE' AND amount < 0.0"
	if p.String() != want {
		t.Errorf("String: %q", p.String())
	}
}
