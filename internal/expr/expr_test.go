package expr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

var testSchema = engine.NewSchema(
	"a", engine.TInt,
	"b", engine.TFloat,
	"s", engine.TString,
	"n", engine.TInt, // holds NULLs in test rows
)

func row(a int64, b float64, s string) []engine.Value {
	return []engine.Value{engine.NewInt(a), engine.NewFloat(b), engine.NewString(s), engine.Null}
}

func mustEval(t *testing.T, e Expr, r []engine.Value) engine.Value {
	t.Helper()
	if err := e.Resolve(testSchema); err != nil {
		t.Fatalf("resolve %s: %v", e, err)
	}
	v, err := e.Eval(r)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	r := row(7, 2.5, "x")
	cases := []struct {
		e    Expr
		want float64
	}{
		{NewBin(OpAdd, NewCol("a"), Int(3)), 10},
		{NewBin(OpSub, NewCol("a"), Int(3)), 4},
		{NewBin(OpMul, NewCol("b"), Int(4)), 10},
		{NewBin(OpDiv, NewCol("a"), Int(2)), 3.5},
		{NewBin(OpMod, NewCol("a"), Int(4)), 3},
		{NewNeg(NewCol("a")), -7},
	}
	for _, c := range cases {
		got := mustEval(t, c.e, r)
		if got.Float() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIntArithmeticStaysIntegral(t *testing.T) {
	v := mustEval(t, NewBin(OpAdd, NewCol("a"), Int(1)), row(7, 0, ""))
	if v.T != engine.TInt || v.I != 8 {
		t.Errorf("int+int = %v (%v)", v, v.T)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	v := mustEval(t, NewBin(OpDiv, NewCol("a"), Int(0)), row(7, 0, ""))
	if !v.IsNull() {
		t.Errorf("7/0 = %v, want NULL", v)
	}
}

func TestStringConcat(t *testing.T) {
	v := mustEval(t, NewBin(OpAdd, NewCol("s"), Str("!")), row(0, 0, "hi"))
	if v.Str() != "hi!" {
		t.Errorf("concat: %q", v.Str())
	}
}

func TestComparisons(t *testing.T) {
	r := row(7, 2.5, "x")
	cases := []struct {
		op   BinOp
		want bool
	}{
		{OpEq, false}, {OpNeq, true}, {OpLt, false}, {OpLe, false}, {OpGt, true}, {OpGe, true},
	}
	for _, c := range cases {
		e := NewBin(c.op, NewCol("a"), Int(5))
		if got := mustEval(t, e, r); got.Bool() != c.want {
			t.Errorf("%s: %v", e, got)
		}
	}
}

// Three-valued logic truth tables.
func TestThreeValuedLogic(t *testing.T) {
	tru := NewLit(engine.NewBool(true))
	fal := NewLit(engine.NewBool(false))
	null := NewCol("n") // evaluates to NULL
	r := row(0, 0, "")

	type tc struct {
		e    Expr
		null bool
		want bool
	}
	cases := []tc{
		{NewBin(OpAnd, tru, null), true, false},
		{NewBin(OpAnd, null, tru), true, false},
		{NewBin(OpAnd, fal, null), false, false}, // FALSE AND NULL = FALSE
		{NewBin(OpAnd, null, fal), false, false},
		{NewBin(OpOr, tru, null), false, true}, // TRUE OR NULL = TRUE
		{NewBin(OpOr, null, tru), false, true},
		{NewBin(OpOr, fal, null), true, false},
		{NewNot(null), true, false},
		{NewBin(OpEq, null, Int(1)), true, false}, // NULL = 1 → NULL
	}
	for _, c := range cases {
		got := mustEval(t, c.e, r)
		if got.IsNull() != c.null {
			t.Errorf("%s: null=%v, want %v", c.e, got.IsNull(), c.null)
			continue
		}
		if !c.null && got.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got.Bool(), c.want)
		}
	}
}

func TestInBetweenLikeIsNull(t *testing.T) {
	r := row(7, 2.5, "REATTRIBUTION TO SPOUSE")
	in := &In{X: NewCol("a"), List: []Expr{Int(1), Int(7)}}
	if !mustEval(t, in, r).Bool() {
		t.Error("7 IN (1,7) should be true")
	}
	notIn := &In{X: NewCol("a"), List: []Expr{Int(1)}, Invert: true}
	if !mustEval(t, notIn, r).Bool() {
		t.Error("7 NOT IN (1) should be true")
	}
	between := &Between{X: NewCol("b"), Lo: Int(2), Hi: Int(3)}
	if !mustEval(t, between, r).Bool() {
		t.Error("2.5 BETWEEN 2 AND 3 should be true")
	}
	like := &Like{X: NewCol("s"), Pattern: "%SPOUSE"}
	if !mustEval(t, like, r).Bool() {
		t.Error("LIKE %SPOUSE should match")
	}
	like2 := &Like{X: NewCol("s"), Pattern: "REATT%TO%"}
	if !mustEval(t, like2, r).Bool() {
		t.Error("LIKE with two %% should match")
	}
	like3 := &Like{X: NewCol("s"), Pattern: "_EATTRIBUTION%"}
	if !mustEval(t, like3, r).Bool() {
		t.Error("LIKE with _ should match")
	}
	isn := &IsNull{X: NewCol("n")}
	if !mustEval(t, isn, r).Bool() {
		t.Error("n IS NULL should be true")
	}
	isnn := &IsNull{X: NewCol("a"), Invert: true}
	if !mustEval(t, isnn, r).Bool() {
		t.Error("a IS NOT NULL should be true")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"", "%", true},
		{"", "_", false},
		{"aaa", "a%a", true},
		{"mississippi", "%iss%ppi", true},
		{"abc", "", false},
		{"", "", true},
		// A '%' in the pattern is always the wildcard, also where the
		// value holds a literal '%'.
		{"%x", "%", true},
		{"a%b", "a%", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.pat); got != c.want {
			t.Errorf("LikeMatch(%q,%q) = %v", c.s, c.pat, got)
		}
	}
}

// TestLikeMatchCharacters pins '_' to one character, not one byte: a
// multibyte rune is one character, and so is each byte that is not
// valid UTF-8.
func TestLikeMatchCharacters(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"é", "_", true},
		{"é", "__", false},
		{"日本", "_本", true},
		{"日本", "%_", true},
		{"日本語", "_%_", true},
		{"xé", "%é", true},
		{"éé", "%_é", true},
		{"\xff", "_", true},
		{"\xffa", "__", true},
		{"\xffa", "_", false},
		{"a\xc3", "a_", true}, // a truncated 2-byte rune is one invalid byte
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.pat); got != c.want {
			t.Errorf("LikeMatch(%q,%q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestScalarFuncs(t *testing.T) {
	r := row(-7, 2.6, "Hello")
	cases := []struct {
		e    Expr
		want string
	}{
		{NewFunc("abs", NewCol("a")), "7"},
		{NewFunc("floor", NewCol("b")), "2"},
		{NewFunc("ceil", NewCol("b")), "3"},
		{NewFunc("round", NewCol("b")), "3"},
		{NewFunc("lower", NewCol("s")), "hello"},
		{NewFunc("upper", NewCol("s")), "HELLO"},
		{NewFunc("length", NewCol("s")), "5"},
		{NewFunc("substr", NewCol("s"), Int(2), Int(3)), "ell"},
		{NewFunc("coalesce", NewCol("n"), Int(9)), "9"},
		{NewFunc("sign", NewCol("a")), "-1"},
		{NewFunc("bucket", Int(1799), Int(1800)), "0"},
		{NewFunc("bucket", Int(1800), Int(1800)), "1800"},
		{NewFunc("bucket", Int(3700), Int(1800)), "3600"},
	}
	for _, c := range cases {
		got := mustEval(t, c.e, r)
		if got.String() != c.want {
			t.Errorf("%s = %v, want %s", c.e, got, c.want)
		}
	}
}

func TestFuncErrors(t *testing.T) {
	bad := NewFunc("nosuchfunc", Int(1))
	if err := bad.Resolve(testSchema); err == nil {
		t.Error("unknown function resolved")
	}
	wrongArity := NewFunc("abs")
	if err := wrongArity.Resolve(testSchema); err == nil {
		t.Error("abs() with no args resolved")
	}
	if err := NewCol("missing").Resolve(testSchema); err == nil {
		t.Error("unknown column resolved")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := NewBin(OpAnd,
		NewBin(OpGt, NewCol("a"), Int(1)),
		&Like{X: NewCol("s"), Pattern: "x%"})
	cols := e.Columns(nil)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "s" {
		t.Errorf("Columns: %v", cols)
	}
}

// Property: NOT (NOT p) ≡ p for non-NULL booleans.
func TestDoubleNegation(t *testing.T) {
	f := func(a int64, threshold int64) bool {
		p := NewBin(OpGt, NewCol("a"), Int(threshold))
		np := NewNot(NewNot(p))
		if err := np.Resolve(testSchema); err != nil {
			return false
		}
		r := row(a, 0, "")
		v1, err1 := p.Eval(r)
		v2, err2 := np.Eval(r)
		return err1 == nil && err2 == nil && v1.Bool() == v2.Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison trichotomy — exactly one of <, =, > holds.
func TestTrichotomy(t *testing.T) {
	f := func(a, b int64) bool {
		r := row(a, 0, "")
		lt := mustEvalQuick(NewBin(OpLt, NewCol("a"), Int(b)), r)
		eq := mustEvalQuick(NewBin(OpEq, NewCol("a"), Int(b)), r)
		gt := mustEvalQuick(NewBin(OpGt, NewCol("a"), Int(b)), r)
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustEvalQuick(e Expr, r []engine.Value) bool {
	if err := e.Resolve(testSchema); err != nil {
		return false
	}
	v, err := e.Eval(r)
	return err == nil && v.Bool()
}

func TestEvalBoolTreatsNullAsFalse(t *testing.T) {
	e := NewBin(OpGt, NewCol("n"), Int(0))
	if err := e.Resolve(testSchema); err != nil {
		t.Fatal(err)
	}
	ok, err := EvalBool(e, row(1, 1, ""))
	if err != nil || ok {
		t.Errorf("NULL > 0 as WHERE: ok=%v err=%v", ok, err)
	}
}

func TestAndHelper(t *testing.T) {
	if And() != nil {
		t.Error("And() should be nil")
	}
	p := NewBin(OpGt, NewCol("a"), Int(0))
	if And(nil, p) != p {
		t.Error("And(nil, p) should be p")
	}
	combined := And(p, p)
	if _, ok := combined.(*Bin); !ok {
		t.Errorf("And(p,p): %T", combined)
	}
}

// TestEqual: names fold case the way Resolve binds them, everything that
// is a value — literals, LIKE patterns, operators, list order — is exact.
func TestEqual(t *testing.T) {
	col := func(n string) Expr { return NewCol(n) }
	same := [][2]Expr{
		{col("s"), col("S")},
		{NewFunc("COALESCE", col("S"), Str("a")), NewFunc("coalesce", col("s"), Str("a"))},
		{NewBin(OpAdd, col("a"), Int(1)), NewBin(OpAdd, col("A"), Int(1))},
		{NewNot(&IsNull{X: col("n")}), NewNot(&IsNull{X: col("N")})},
		{&In{X: col("a"), List: []Expr{Int(1), Int(2)}}, &In{X: col("a"), List: []Expr{Int(1), Int(2)}}},
		{&Between{X: col("b"), Lo: Float(0), Hi: Float(1)}, &Between{X: col("B"), Lo: Float(0), Hi: Float(1)}},
		{&Like{X: col("s"), Pattern: "a%"}, &Like{X: col("S"), Pattern: "a%"}},
		{NewNeg(col("b")), NewNeg(col("b"))},
	}
	for _, p := range same {
		if !Equal(p[0], p[1]) || !Equal(p[1], p[0]) {
			t.Errorf("%s and %s should be equal", p[0], p[1])
		}
	}
	differ := [][2]Expr{
		{col("s"), col("n")},
		{NewFunc("coalesce", col("s"), Str("a")), NewFunc("coalesce", col("s"), Str("A"))},
		{NewFunc("lower", col("s")), NewFunc("upper", col("s"))},
		{NewFunc("bucket", col("a"), Int(2)), NewFunc("bucket", col("a"), Float(2))},
		{NewFunc("coalesce", col("s")), NewFunc("coalesce", col("s"), Str("a"))},
		{Float(0), Float(negZero())},
		{NewBin(OpAdd, col("a"), Int(1)), NewBin(OpSub, col("a"), Int(1))},
		{NewBin(OpAdd, col("a"), Int(1)), NewBin(OpAdd, Int(1), col("a"))},
		{&IsNull{X: col("n")}, &IsNull{X: col("n"), Invert: true}},
		{&In{X: col("a"), List: []Expr{Int(1), Int(2)}}, &In{X: col("a"), List: []Expr{Int(2), Int(1)}}},
		{&Between{X: col("b"), Lo: Float(0), Hi: Float(1)}, &Between{X: col("b"), Lo: Float(0), Hi: Float(2)}},
		{&Like{X: col("s"), Pattern: "a%"}, &Like{X: col("s"), Pattern: "A%"}},
		{NewNeg(Int(5)), Int(-5)},
		{NewNot(col("a")), NewNeg(col("a"))},
	}
	for _, p := range differ {
		if Equal(p[0], p[1]) || Equal(p[1], p[0]) {
			t.Errorf("%s and %s should differ", p[0], p[1])
		}
	}
}

func negZero() float64 { return math.Copysign(0, -1) }
