// Package expr defines the scalar expression AST shared by the SQL
// parser, the query executor, and the predicate machinery, and its two
// evaluators: a NULL-aware (three-valued logic) interpreter over one
// []engine.Value row, and CompileFloat's block kernels over typed
// chunks (kernel.go), which decline any block they cannot prove equal to
// the interpreter.
//
// Expressions are resolved against a schema once (binding column names
// to positions) and then evaluated. Eval reads only the cells of the
// columns the expression names (Columns), so a caller may fill just
// those.
package expr

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/engine"
)

// Expr is a scalar expression node.
type Expr interface {
	// Resolve binds column references against the schema; it must be
	// called (once) before Eval.
	Resolve(schema engine.Schema) error
	// Eval evaluates the expression against one row.
	Eval(row []engine.Value) (engine.Value, error)
	// String renders the expression as SQL.
	String() string
	// Columns appends the names of referenced columns to dst.
	Columns(dst []string) []string
}

// ---------------------------------------------------------------------
// Column references and literals

// Col is a reference to a named column.
type Col struct {
	Name  string
	Index int // resolved position; -1 until Resolve
}

// NewCol returns an unresolved column reference.
func NewCol(name string) *Col { return &Col{Name: name, Index: -1} }

// Resolve implements Expr.
func (c *Col) Resolve(schema engine.Schema) error {
	i := schema.ColIndex(c.Name)
	if i < 0 {
		return fmt.Errorf("expr: unknown column %q (schema %s)", c.Name, schema)
	}
	c.Index = i
	return nil
}

// Eval implements Expr.
func (c *Col) Eval(row []engine.Value) (engine.Value, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return engine.Null, fmt.Errorf("expr: column %q not resolved", c.Name)
	}
	return row[c.Index], nil
}

// String implements Expr.
func (c *Col) String() string { return QuoteIdent(c.Name) }

// sqlReserved are the words the parser treats as structure after an
// expression or identifier position; a column or alias spelled like one
// must be quoted to round-trip through SQL text.
var sqlReserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"having": true, "order": true, "limit": true, "as": true,
	"and": true, "or": true, "not": true, "in": true, "like": true,
	"between": true, "is": true, "asc": true, "desc": true, "by": true,
	"null": true, "distinct": true, "true": true, "false": true,
}

// QuoteIdent renders an identifier as SQL: bare when it is a plain
// unreserved word ([A-Za-z_][A-Za-z0-9_]*), double-quoted otherwise —
// names with spaces, punctuation, a leading digit, or a reserved
// spelling would otherwise re-parse as different syntax. A double quote
// inside a quoted name is doubled, as the lexer reads it.
func QuoteIdent(name string) string {
	plain := name != ""
	for i, r := range name {
		switch {
		case r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z'):
		case '0' <= r && r <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain && !sqlReserved[strings.ToLower(name)] {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// Columns implements Expr.
func (c *Col) Columns(dst []string) []string { return append(dst, c.Name) }

// Lit is a literal value.
type Lit struct {
	Val engine.Value
}

// NewLit wraps a value as a literal expression.
func NewLit(v engine.Value) *Lit { return &Lit{Val: v} }

// Int returns an integer literal.
func Int(i int64) *Lit { return NewLit(engine.NewInt(i)) }

// Float returns a float literal.
func Float(f float64) *Lit { return NewLit(engine.NewFloat(f)) }

// Str returns a string literal.
func Str(s string) *Lit { return NewLit(engine.NewString(s)) }

// Resolve implements Expr.
func (l *Lit) Resolve(engine.Schema) error { return nil }

// Eval implements Expr.
func (l *Lit) Eval([]engine.Value) (engine.Value, error) { return l.Val, nil }

// String implements Expr.
func (l *Lit) String() string { return l.Val.SQL() }

// Columns implements Expr.
func (l *Lit) Columns(dst []string) []string { return dst }

// ---------------------------------------------------------------------
// Operators

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNeq: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether the operator yields a boolean from two
// scalar operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsLogic reports whether the operator is AND/OR.
func (op BinOp) IsLogic() bool { return op == OpAnd || op == OpOr }

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// NewBin builds a binary expression.
func NewBin(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Resolve implements Expr.
func (b *Bin) Resolve(schema engine.Schema) error {
	if err := b.L.Resolve(schema); err != nil {
		return err
	}
	return b.R.Resolve(schema)
}

// boolValue converts a value to a three-valued boolean:
// (value, known). NULL is (false, false).
func boolValue(v engine.Value) (bool, bool) {
	if v.IsNull() {
		return false, false
	}
	return v.Bool(), true
}

// Eval implements Expr with SQL three-valued logic for comparisons and
// AND/OR, and NULL-propagating arithmetic.
func (b *Bin) Eval(row []engine.Value) (engine.Value, error) {
	lv, err := b.L.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	if b.Op.IsLogic() {
		return b.evalLogic(lv, row)
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	return b.apply(lv, rv)
}

// evalLogic evaluates AND/OR with SQL three-valued logic over an
// already-evaluated left operand, evaluating the right one only where
// 3VL does not short-circuit.
func (b *Bin) evalLogic(lv engine.Value, row []engine.Value) (engine.Value, error) {
	lb, lk := boolValue(lv)
	if b.Op == OpAnd && lk && !lb {
		return engine.NewBool(false), nil
	}
	if b.Op == OpOr && lk && lb {
		return engine.NewBool(true), nil
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	rb, rk := boolValue(rv)
	switch b.Op {
	case OpAnd:
		switch {
		case lk && rk:
			return engine.NewBool(lb && rb), nil
		case (lk && !lb) || (rk && !rb):
			return engine.NewBool(false), nil
		default:
			return engine.Null, nil
		}
	default: // OpOr
		switch {
		case lk && rk:
			return engine.NewBool(lb || rb), nil
		case (lk && lb) || (rk && rb):
			return engine.NewBool(true), nil
		default:
			return engine.Null, nil
		}
	}
}

// apply evaluates the non-logic operators over already-evaluated
// operands.
func (b *Bin) apply(lv, rv engine.Value) (engine.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return engine.Null, nil
	}

	if b.Op.IsComparison() {
		c, err := engine.Compare(lv, rv)
		if err != nil {
			return engine.Null, fmt.Errorf("expr: %s: %w", b, err)
		}
		var out bool
		switch b.Op {
		case OpEq:
			out = c == 0
		case OpNeq:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		}
		return engine.NewBool(out), nil
	}

	// Arithmetic. String + string concatenates; otherwise numeric.
	if b.Op == OpAdd && lv.T == engine.TString && rv.T == engine.TString {
		return engine.NewString(lv.S + rv.S), nil
	}
	if !lv.T.IsNumeric() || !rv.T.IsNumeric() {
		return engine.Null, fmt.Errorf("expr: %s: non-numeric operands %s, %s", b, lv.T, rv.T)
	}
	// Integer arithmetic stays integral except for division.
	if lv.T == engine.TInt && rv.T == engine.TInt && b.Op != OpDiv {
		li, ri := lv.I, rv.I
		switch b.Op {
		case OpAdd:
			return engine.NewInt(li + ri), nil
		case OpSub:
			return engine.NewInt(li - ri), nil
		case OpMul:
			return engine.NewInt(li * ri), nil
		case OpMod:
			if ri == 0 {
				return engine.Null, nil
			}
			return engine.NewInt(li % ri), nil
		}
	}
	lf, rf := lv.Float(), rv.Float()
	switch b.Op {
	case OpAdd:
		return engine.NewFloat(lf + rf), nil
	case OpSub:
		return engine.NewFloat(lf - rf), nil
	case OpMul:
		return engine.NewFloat(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return engine.Null, nil
		}
		return engine.NewFloat(lf / rf), nil
	case OpMod:
		// Modulo truncates both operands; guard the TRUNCATED divisor —
		// a fractional rf in (-1, 1) is non-zero as a float but becomes
		// 0 as an integer, and `% 0` is a runtime panic, not an error.
		li, ri := int64(lf), int64(rf)
		if ri == 0 {
			return engine.Null, nil
		}
		return engine.NewFloat(float64(li % ri)), nil
	}
	return engine.Null, fmt.Errorf("expr: unsupported operator %v", b.Op)
}

// String implements Expr. AND and OR take any operand; arithmetic and
// comparison operands are additive terms (operand).
func (b *Bin) String() string {
	if b.Op == OpAnd || b.Op == OpOr {
		return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", operand(b.L), b.Op, operand(b.R))
}

// Columns implements Expr.
func (b *Bin) Columns(dst []string) []string {
	return b.R.Columns(b.L.Columns(dst))
}

// Not is logical negation with 3VL (NOT NULL = NULL).
type Not struct {
	X Expr
}

// NewNot negates an expression.
func NewNot(x Expr) *Not { return &Not{X: x} }

// Resolve implements Expr.
func (n *Not) Resolve(schema engine.Schema) error { return n.X.Resolve(schema) }

// Eval implements Expr.
func (n *Not) Eval(row []engine.Value) (engine.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	b, known := boolValue(v)
	if !known {
		return engine.Null, nil
	}
	return engine.NewBool(!b), nil
}

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.X) }

// Columns implements Expr.
func (n *Not) Columns(dst []string) []string { return n.X.Columns(dst) }

// Neg is arithmetic negation.
type Neg struct {
	X Expr
}

// NewNeg negates a numeric expression.
func NewNeg(x Expr) *Neg { return &Neg{X: x} }

// Resolve implements Expr.
func (n *Neg) Resolve(schema engine.Schema) error { return n.X.Resolve(schema) }

// Eval implements Expr.
func (n *Neg) Eval(row []engine.Value) (engine.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil || v.IsNull() {
		return engine.Null, err
	}
	switch v.T {
	case engine.TInt:
		return engine.NewInt(-v.I), nil
	case engine.TFloat:
		return engine.NewFloat(-v.F), nil
	default:
		if v.T.IsNumeric() {
			return engine.NewFloat(-v.Float()), nil
		}
		return engine.Null, fmt.Errorf("expr: cannot negate %s", v.T)
	}
}

// String implements Expr.
func (n *Neg) String() string {
	// A nested negation must parenthesize: "--f" lexes as two operators
	// (and fails to parse), not as negate-twice.
	if _, ok := n.X.(*Neg); ok {
		return fmt.Sprintf("-(%s)", n.X)
	}
	return "-" + operand(n.X)
}

// Columns implements Expr.
func (n *Neg) Columns(dst []string) []string { return n.X.Columns(dst) }

// ---------------------------------------------------------------------
// SQL-specific predicates

// In tests membership in a literal list.
type In struct {
	X      Expr
	List   []Expr
	Invert bool
}

// Resolve implements Expr.
func (in *In) Resolve(schema engine.Schema) error {
	if err := in.X.Resolve(schema); err != nil {
		return err
	}
	for _, e := range in.List {
		if err := e.Resolve(schema); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr.
func (in *In) Eval(row []engine.Value) (engine.Value, error) {
	xv, err := in.X.Eval(row)
	if err != nil || xv.IsNull() {
		return engine.Null, err
	}
	sawNull := false
	for _, e := range in.List {
		ev, err := e.Eval(row)
		if err != nil {
			return engine.Null, err
		}
		if ev.IsNull() {
			sawNull = true
			continue
		}
		if engine.Equal(xv, ev) {
			return engine.NewBool(!in.Invert), nil
		}
	}
	if sawNull {
		return engine.Null, nil
	}
	return engine.NewBool(in.Invert), nil
}

// String implements Expr.
func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := "IN"
	if in.Invert {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", operand(in.X), op, strings.Join(parts, ", "))
}

// Columns implements Expr.
func (in *In) Columns(dst []string) []string {
	dst = in.X.Columns(dst)
	for _, e := range in.List {
		dst = e.Columns(dst)
	}
	return dst
}

// Between tests lo <= x <= hi.
type Between struct {
	X, Lo, Hi Expr
	Invert    bool
}

// Resolve implements Expr.
func (b *Between) Resolve(schema engine.Schema) error {
	for _, e := range []Expr{b.X, b.Lo, b.Hi} {
		if err := e.Resolve(schema); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr.
func (b *Between) Eval(row []engine.Value) (engine.Value, error) {
	xv, err := b.X.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	if xv.IsNull() || lo.IsNull() || hi.IsNull() {
		return engine.Null, nil
	}
	cl, err := engine.Compare(xv, lo)
	if err != nil {
		return engine.Null, err
	}
	ch, err := engine.Compare(xv, hi)
	if err != nil {
		return engine.Null, err
	}
	in := cl >= 0 && ch <= 0
	return engine.NewBool(in != b.Invert), nil
}

// String implements Expr.
func (b *Between) String() string {
	op := "BETWEEN"
	if b.Invert {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", operand(b.X), op, operand(b.Lo), operand(b.Hi))
}

// Columns implements Expr.
func (b *Between) Columns(dst []string) []string {
	return b.Hi.Columns(b.Lo.Columns(b.X.Columns(dst)))
}

// IsNull tests x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Invert bool
}

// Resolve implements Expr.
func (n *IsNull) Resolve(schema engine.Schema) error { return n.X.Resolve(schema) }

// Eval implements Expr.
func (n *IsNull) Eval(row []engine.Value) (engine.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	return engine.NewBool(v.IsNull() != n.Invert), nil
}

// String implements Expr.
func (n *IsNull) String() string {
	if n.Invert {
		return fmt.Sprintf("%s IS NOT NULL", operand(n.X))
	}
	return fmt.Sprintf("%s IS NULL", operand(n.X))
}

// Columns implements Expr.
func (n *IsNull) Columns(dst []string) []string { return n.X.Columns(dst) }

// Like matches SQL LIKE patterns (% and _ wildcards), case-sensitively.
type Like struct {
	X       Expr
	Pattern string
	Invert  bool
}

// Resolve implements Expr.
func (l *Like) Resolve(schema engine.Schema) error { return l.X.Resolve(schema) }

// LikeMatch reports whether s matches the LIKE pattern pat: '%' matches
// any run of characters, '_' exactly one, and any other byte itself. A
// character is a UTF-8 rune, and a byte that is not valid UTF-8 counts
// as one character. It is the one matcher behind Like.Eval and the
// executor's LIKE clause masks (predicate.OpLike). The iterative
// two-pointer walk backtracks to the last '%'; patterns in this system
// are short (predicates over memo fields).
func LikeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && pat[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(pat) && pat[pi] == '_':
			_, w := utf8.DecodeRuneInString(s[si:])
			si += w
			pi++
		case pi < len(pat) && pat[pi] == s[si]:
			si++
			pi++
		case star >= 0:
			_, w := utf8.DecodeRuneInString(s[mark:])
			mark += w
			pi, si = star+1, mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Eval implements Expr.
func (l *Like) Eval(row []engine.Value) (engine.Value, error) {
	v, err := l.X.Eval(row)
	if err != nil {
		return engine.Null, err
	}
	if v.IsNull() {
		return engine.Null, nil
	}
	return engine.NewBool(LikeMatch(v.Str(), l.Pattern) != l.Invert), nil
}

// String implements Expr.
func (l *Like) String() string {
	op := "LIKE"
	if l.Invert {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", operand(l.X), op, strings.ReplaceAll(l.Pattern, "'", "''"))
}

// Columns implements Expr.
func (l *Like) Columns(dst []string) []string { return l.X.Columns(dst) }

// ---------------------------------------------------------------------
// Helpers

// operand renders e where the grammar wants an additive term: the
// operand of IN, LIKE, BETWEEN (its bounds too), IS NULL, unary minus and
// the arithmetic and comparison operators. A predicate or NOT there is
// parenthesized; bare, it would re-parse as a different tree ("-a IS
// NULL") or not at all ("a IS NULL IS NULL"). Every other node already
// prints as a term (Bin parenthesizes itself).
func operand(e Expr) string {
	switch e.(type) {
	case *Not, *In, *Between, *IsNull, *Like:
		return "(" + e.String() + ")"
	}
	return e.String()
}

// And combines expressions with AND; it returns nil for no arguments and
// skips nil arguments.
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewBin(OpAnd, out, e)
		}
	}
	return out
}

// Equal reports whether a and b are the same expression, node for node:
// column and function names compare case-insensitively, as Resolve binds
// them; literals, LIKE patterns and operators compare exactly (a float
// literal by its bits), so 'a' and 'A', or 1 and 1.0, differ. Equal
// expressions evaluate to identical values on every row.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && strings.EqualFold(x.Name, y.Name)
	case *Lit:
		y, ok := b.(*Lit)
		return ok && x.Val.T == y.Val.T && x.Val.I == y.Val.I && x.Val.S == y.Val.S &&
			math.Float64bits(x.Val.F) == math.Float64bits(y.Val.F)
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.X, y.X)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && Equal(x.X, y.X)
	case *In:
		y, ok := b.(*In)
		return ok && x.Invert == y.Invert && Equal(x.X, y.X) && equalAll(x.List, y.List)
	case *Between:
		y, ok := b.(*Between)
		return ok && x.Invert == y.Invert && Equal(x.X, y.X) && Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Invert == y.Invert && Equal(x.X, y.X)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Invert == y.Invert && x.Pattern == y.Pattern && Equal(x.X, y.X)
	case *Func:
		y, ok := b.(*Func)
		return ok && strings.EqualFold(x.Name, y.Name) && equalAll(x.Args, y.Args)
	}
	return false
}

func equalAll(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EvalBool evaluates e as a WHERE-clause predicate: NULL counts as false.
func EvalBool(e Expr, row []engine.Value) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	b, known := boolValue(v)
	return known && b, nil
}
