// Package predicate defines the human-readable conjunctive predicates
// DBWipes returns as explanations (e.g. "(sensorid = 15 AND time
// BETWEEN 11am AND 1pm)" in the paper), along with evaluation against
// tables, canonicalization/simplification, deduplication, and rendering
// to SQL / expression trees so a predicate can be clicked to clean the
// database (WHERE NOT (...)).
package predicate

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
)

// Op is a clause comparison operator.
type Op int

// Clause operators.
const (
	OpEq Op = iota
	OpNeq
	OpLe
	OpGe
	OpLt
	OpGt
	// OpLike matches a string column against the LIKE pattern its Val
	// holds, which must be a string, through expr.LikeMatch; on any other
	// column it matches nothing. It is the executor's lowering of `col
	// LIKE 'p'`; the learners never produce it.
	OpLike
)

var opNames = [...]string{OpEq: "=", OpNeq: "!=", OpLe: "<=", OpGe: ">=", OpLt: "<", OpGt: ">", OpLike: "LIKE"}

// String returns the SQL spelling.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "?"
	}
	return opNames[o]
}

// Clause is one atomic condition on a column.
type Clause struct {
	Col string
	Op  Op
	Val engine.Value
}

// String renders the clause as SQL.
func (c Clause) String() string {
	return fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Val.SQL())
}

// Matches evaluates the clause against a value of its column. NULL never
// matches (SQL semantics). The op dispatch lives in opMatchesCmp
// (index.go) and a string verdict in matchString, so the vectorized
// clause masks and this row-at-a-time path share one source of truth.
func (c Clause) Matches(v engine.Value) bool {
	if v.IsNull() {
		return false
	}
	if c.Op == OpLike {
		return v.T == engine.TString && c.Val.T == engine.TString && c.matchString(v.S)
	}
	cmp, err := engine.Compare(v, c.Val)
	if err != nil {
		return false
	}
	return opMatchesCmp(c.Op, cmp)
}

// Predicate is a conjunction of clauses. The zero Predicate matches
// every row ("TRUE").
type Predicate struct {
	Clauses []Clause
}

// New builds a predicate from clauses.
func New(clauses ...Clause) Predicate { return Predicate{Clauses: clauses} }

// IsTrue reports whether the predicate has no clauses.
func (p Predicate) IsTrue() bool { return len(p.Clauses) == 0 }

// Len returns the number of clauses (the paper's "complexity": number
// of terms).
func (p Predicate) Len() int { return len(p.Clauses) }

// Columns returns the distinct columns referenced, in clause order.
func (p Predicate) Columns() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.Clauses {
		lower := strings.ToLower(c.Col)
		if !seen[lower] {
			seen[lower] = true
			out = append(out, c.Col)
		}
	}
	return out
}

// And returns p with an extra clause appended.
func (p Predicate) And(c Clause) Predicate {
	out := Predicate{Clauses: make([]Clause, 0, len(p.Clauses)+1)}
	out.Clauses = append(out.Clauses, p.Clauses...)
	out.Clauses = append(out.Clauses, c)
	return out
}

// String renders the predicate as SQL; the TRUE predicate renders as
// "TRUE".
func (p Predicate) String() string {
	if p.IsTrue() {
		return "TRUE"
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// MatchesRow evaluates the predicate against row values using resolved
// column indexes. Use Binder for repeated evaluation.
func (p Predicate) MatchesRow(t *engine.Table, row int) bool {
	for _, c := range p.Clauses {
		ci := t.Schema().ColIndex(c.Col)
		if ci < 0 || !c.Matches(t.Value(row, ci)) {
			return false
		}
	}
	return true
}

// Binder pre-resolves a predicate's columns against a table for fast
// row evaluation.
type Binder struct {
	clauses []Clause
	cols    []int
	table   *engine.Table
	valid   bool
}

// Bind resolves the predicate against t. An unknown column yields an
// invalid binder that matches nothing.
func (p Predicate) Bind(t *engine.Table) *Binder {
	b := &Binder{clauses: p.Clauses, table: t, valid: true}
	for _, c := range p.Clauses {
		ci := t.Schema().ColIndex(c.Col)
		if ci < 0 {
			b.valid = false
			break
		}
		b.cols = append(b.cols, ci)
	}
	return b
}

// Matches evaluates the bound predicate against a row.
func (b *Binder) Matches(row int) bool {
	if !b.valid {
		return false
	}
	for i, c := range b.clauses {
		if !c.Matches(b.table.Value(row, b.cols[i])) {
			return false
		}
	}
	return true
}

// MatchingRows returns the rows of t (restricted to the given subset, or
// all rows when subset is nil) satisfying the predicate.
func (p Predicate) MatchingRows(t *engine.Table, subset []int) []int {
	b := p.Bind(t)
	var out []int
	if subset == nil {
		for r := 0; r < t.NumRows(); r++ {
			if b.Matches(r) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range subset {
		if b.Matches(r) {
			out = append(out, r)
		}
	}
	return out
}

// ToExpr converts the predicate to an expression tree for use in WHERE
// clauses. The TRUE predicate converts to the literal true.
func (p Predicate) ToExpr() expr.Expr {
	if p.IsTrue() {
		return expr.NewLit(engine.NewBool(true))
	}
	var e expr.Expr
	for _, c := range p.Clauses {
		var clause expr.Expr
		if c.Op == OpLike {
			clause = &expr.Like{X: expr.NewCol(c.Col), Pattern: c.Val.S}
		} else {
			clause = expr.NewBin(exprOps[c.Op], expr.NewCol(c.Col), expr.NewLit(c.Val))
		}
		e = expr.And(e, clause)
	}
	return e
}

var exprOps = [...]expr.BinOp{OpEq: expr.OpEq, OpNeq: expr.OpNeq, OpLe: expr.OpLe, OpGe: expr.OpGe, OpLt: expr.OpLt, OpGt: expr.OpGt}

// NegationExpr returns NOT (p), the filter that *removes* the
// predicate's tuples — what clicking a predicate in the dashboard adds
// to the query.
func (p Predicate) NegationExpr() expr.Expr { return expr.NewNot(p.ToExpr()) }

// ---------------------------------------------------------------------
// Canonicalization

// Simplify canonicalizes the predicate:
//   - redundant bounds on the same column collapse (x>=3 AND x>=5 → x>=5)
//   - exact duplicates drop
//   - an equality on a column supersedes consistent range bounds on it
//   - contradictions yield (false, since an always-false explanation is
//     useless) — reported via the second return value
//   - a LIKE clause is kept verbatim, only its exact duplicates drop
//
// Clauses are ordered by column name, then operator.
func (p Predicate) Simplify() (Predicate, bool) {
	type bounds struct {
		eq      *engine.Value
		neqs    []engine.Value
		likes   []engine.Value
		lo      *engine.Value // strictest lower bound
		loIncl  bool
		hi      *engine.Value // strictest upper bound
		hiIncl  bool
		colName string
	}
	byCol := map[string]*bounds{}
	var order []string
	for _, c := range p.Clauses {
		key := strings.ToLower(c.Col)
		b, ok := byCol[key]
		if !ok {
			b = &bounds{colName: c.Col}
			byCol[key] = b
			order = append(order, key)
		}
		switch c.Op {
		case OpEq:
			if b.eq != nil && !engine.Equal(*b.eq, c.Val) {
				return Predicate{}, false
			}
			v := c.Val
			b.eq = &v
		case OpNeq:
			b.neqs = append(b.neqs, c.Val)
		case OpLike:
			if !slices.Contains(b.likes, c.Val) {
				b.likes = append(b.likes, c.Val)
			}
		case OpGe, OpGt:
			incl := c.Op == OpGe
			if b.lo == nil {
				v := c.Val
				b.lo, b.loIncl = &v, incl
			} else if cmp, err := engine.Compare(c.Val, *b.lo); err == nil {
				if cmp > 0 || (cmp == 0 && !incl) {
					v := c.Val
					b.lo, b.loIncl = &v, incl
				}
			}
		case OpLe, OpLt:
			incl := c.Op == OpLe
			if b.hi == nil {
				v := c.Val
				b.hi, b.hiIncl = &v, incl
			} else if cmp, err := engine.Compare(c.Val, *b.hi); err == nil {
				if cmp < 0 || (cmp == 0 && !incl) {
					v := c.Val
					b.hi, b.hiIncl = &v, incl
				}
			}
		}
	}

	var out Predicate
	sort.Strings(order)
	for _, key := range order {
		b := byCol[key]
		for _, pat := range b.likes {
			out.Clauses = append(out.Clauses, Clause{Col: b.colName, Op: OpLike, Val: pat})
		}
		if b.eq != nil {
			// Check consistency with bounds and neqs.
			if b.lo != nil {
				if cmp, err := engine.Compare(*b.eq, *b.lo); err != nil || cmp < 0 || (cmp == 0 && !b.loIncl) {
					return Predicate{}, false
				}
			}
			if b.hi != nil {
				if cmp, err := engine.Compare(*b.eq, *b.hi); err != nil || cmp > 0 || (cmp == 0 && !b.hiIncl) {
					return Predicate{}, false
				}
			}
			for _, nv := range b.neqs {
				if engine.Equal(*b.eq, nv) {
					return Predicate{}, false
				}
			}
			out.Clauses = append(out.Clauses, Clause{Col: b.colName, Op: OpEq, Val: *b.eq})
			continue
		}
		if b.lo != nil && b.hi != nil {
			cmp, err := engine.Compare(*b.lo, *b.hi)
			if err == nil && (cmp > 0 || (cmp == 0 && !(b.loIncl && b.hiIncl))) {
				return Predicate{}, false
			}
		}
		if b.lo != nil {
			op := OpGe
			if !b.loIncl {
				op = OpGt
			}
			out.Clauses = append(out.Clauses, Clause{Col: b.colName, Op: op, Val: *b.lo})
		}
		if b.hi != nil {
			op := OpLe
			if !b.hiIncl {
				op = OpLt
			}
			out.Clauses = append(out.Clauses, Clause{Col: b.colName, Op: op, Val: *b.hi})
		}
		// Keep NEQs that are not already excluded by the bounds.
		seen := map[string]bool{}
		for _, nv := range b.neqs {
			if seen[nv.Key()] {
				continue
			}
			seen[nv.Key()] = true
			excluded := false
			if b.lo != nil {
				if cmp, err := engine.Compare(nv, *b.lo); err == nil && (cmp < 0 || (cmp == 0 && !b.loIncl)) {
					excluded = true
				}
			}
			if b.hi != nil {
				if cmp, err := engine.Compare(nv, *b.hi); err == nil && (cmp > 0 || (cmp == 0 && !b.hiIncl)) {
					excluded = true
				}
			}
			if !excluded {
				out.Clauses = append(out.Clauses, Clause{Col: b.colName, Op: OpNeq, Val: nv})
			}
		}
	}
	return out, true
}
