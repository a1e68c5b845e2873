package exec

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/predicate"
)

// This file is the WHERE half of the pipeline. buildFilter turns a
// resolved WHERE tree into the bitmap of passing rows through one
// walker: the tree is a chain of one or more AND conjuncts, and each
// conjunct either *lowers* onto the cached clause masks of
// predicate.Index (comparisons between a column and a constant, IS
// NULL, BETWEEN and IN over constants, LIKE on a string column,
// combined with AND/OR/NOT) or is *residual* (arithmetic, function
// calls, column-to-column comparisons, LIKE on a computed value) and is
// interpreted per row, only on the rows the conjuncts before it have
// not already ruled out. A WHERE where nothing lowers is the same walk
// with every conjunct residual.
//
// SQL WHERE is three-valued: a row passes only when the expression is
// TRUE, and NOT must map NULL to NULL, not to TRUE. Lowering therefore
// tracks a pair of masks per node — rows where the expression is TRUE
// and rows where it is FALSE; rows in neither are NULL — and the
// combinators follow Kleene logic:
//
//	AND:  T = T₁∧T₂   F = F₁∨F₂
//	OR:   T = T₁∨T₂   F = F₁∧F₂
//	NOT:  T = F₁      F = T₁
//
// A leaf gets T from clause masks (whose semantics are pinned
// bit-for-bit to the scalar evaluator by the predicate package's parity
// test) and F = nonNull(column) \ T.

// lowerCtx carries the table family's one clause-mask index
// (predicate.Shared) together with the exact table version the
// statement is executing against, which names every mask request: a
// query running mid-append gets masks of exactly its snapshot's length,
// and one racing a retention pass gets masks built for its own row-id
// window.
type lowerCtx struct {
	ix  *predicate.Index
	src *engine.Table
}

// tfMask is a node's three-valued result: t holds the rows where it is
// TRUE, f the rows where it is FALSE; rows in neither are NULL. Leaf
// masks may alias shared cached bitsets — combinators always allocate
// fresh outputs and never mutate inputs.
type tfMask struct {
	t, f *bitset.Bitset
}

// ---------------------------------------------------------------------
// Leaves: the one place that decides which WHERE node lowers to what

type leafKind uint8

const (
	leafConst   leafKind = iota // the same verdict on every row
	leafIsNull                  // T = rows where the column is NULL
	leafClauses                 // T = AND / OR of clause masks over one column
)

// leaf is a WHERE node that lowers directly onto the predicate index,
// normalized so its masks derive from one description: a comparison or
// a LIKE is one clause, BETWEEN the AND of two, IN the OR of one
// equality clause per literal.
type leaf struct {
	kind    leafKind
	verdict int8 // leafConst: +1 TRUE, -1 FALSE, 0 NULL
	ci      int  // the column (leafIsNull, leafClauses)
	clauses []predicate.Clause
	all     bool // leafClauses: T is the AND of the clause masks, not the OR
	openF   bool // IN list holding a NULL literal: a non-matching row is NULL, never FALSE
	invert  bool // IS NOT NULL / NOT BETWEEN / NOT IN / NOT LIKE: T and F swap
}

// classify reports whether e is a leaf, and which. The checks are pure
// shape — schema and literal types, no index access — and a leaf always
// lowers. A
// comparison or range whose literal is not comparable with the column
// is not a leaf: the scalar evaluator errors on it, and evaluating it
// as a residual surfaces that error identically.
func classify(e expr.Expr, schema engine.Schema) (leaf, bool) {
	column := func(x expr.Expr) (string, int, bool) {
		col, ok := x.(*expr.Col)
		if !ok {
			return "", -1, false
		}
		ci := schema.ColIndex(col.Name)
		return col.Name, ci, ci >= 0
	}
	switch node := e.(type) {
	case *expr.Lit:
		l := leaf{kind: leafConst}
		if !node.Val.IsNull() {
			l.verdict = -1
			if node.Val.Bool() {
				l.verdict = 1
			}
		}
		return l, true

	case *expr.Bin:
		col, lit, op, ok := comparisonShape(node)
		if !ok {
			return leaf{}, false
		}
		name, ci, ok := column(col)
		if !ok {
			return leaf{}, false
		}
		if lit.Val.IsNull() {
			return leaf{kind: leafConst}, true // NULL for every row
		}
		if !literalComparable(schema[ci].Type, lit.Val) {
			return leaf{}, false
		}
		return leaf{kind: leafClauses, ci: ci, clauses: []predicate.Clause{{Col: name, Op: op, Val: lit.Val}}}, true

	case *expr.IsNull:
		_, ci, ok := column(node.X)
		return leaf{kind: leafIsNull, ci: ci, invert: node.Invert}, ok

	case *expr.Between:
		name, ci, ok := column(node.X)
		lo, okLo := node.Lo.(*expr.Lit)
		hi, okHi := node.Hi.(*expr.Lit)
		if !ok || !okLo || !okHi {
			return leaf{}, false
		}
		if lo.Val.IsNull() || hi.Val.IsNull() {
			return leaf{kind: leafConst}, true // the range test is NULL for every row
		}
		if t := schema[ci].Type; !literalComparable(t, lo.Val) || !literalComparable(t, hi.Val) {
			return leaf{}, false
		}
		return leaf{kind: leafClauses, ci: ci, all: true, invert: node.Invert, clauses: []predicate.Clause{
			{Col: name, Op: predicate.OpGe, Val: lo.Val},
			{Col: name, Op: predicate.OpLe, Val: hi.Val},
		}}, true

	case *expr.In:
		name, ci, ok := column(node.X)
		if !ok {
			return leaf{}, false
		}
		l := leaf{kind: leafClauses, ci: ci, invert: node.Invert}
		for _, item := range node.List {
			lit, ok := item.(*expr.Lit)
			if !ok {
				return leaf{}, false
			}
			if lit.Val.IsNull() {
				l.openF = true
				continue
			}
			// Equality against an incomparable literal type matches
			// nothing on both sides (engine.Equal treats incomparable as
			// unequal, the clause mask stays empty), so every literal
			// lowers.
			l.clauses = append(l.clauses, predicate.Clause{Col: name, Op: predicate.OpEq, Val: lit.Val})
		}
		return l, true

	case *expr.Like:
		// The interpreter matches a non-string value's rendering, which no
		// dictionary holds: only a string column lowers.
		name, ci, ok := column(node.X)
		if !ok || schema[ci].Type != engine.TString {
			return leaf{}, false
		}
		return leaf{kind: leafClauses, ci: ci, invert: node.Invert, clauses: []predicate.Clause{
			{Col: name, Op: predicate.OpLike, Val: engine.NewString(node.Pattern)},
		}}, true
	}
	return leaf{}, false
}

// masks materializes the leaf's TRUE mask and, when needF, its FALSE
// mask (left nil otherwise — a conjunct nothing is guarded by only ever
// contributes T). The TRUE mask of a single clause aliases the index's
// shared cached bitset and is read-only.
func (l *leaf) masks(lc lowerCtx, needF bool) (m tfMask) {
	n := lc.src.NumRows()
	if l.kind == leafConst {
		m = tfMask{t: bitset.New(n), f: bitset.New(n)}
		switch {
		case l.verdict > 0:
			m.t.Fill()
		case l.verdict < 0:
			m.f.Fill()
		}
		return m
	}
	var nn *bitset.Bitset
	if needF || l.invert || l.kind == leafIsNull {
		nn = lc.ix.Mask(lc.src, predicate.NonNull(lc.src.Schema()[l.ci].Name))
	}
	if l.kind == leafIsNull {
		m.t = bitset.New(n)
		m.t.Fill()
		m.t.AndNot(nn)
		m.f = nn
	} else {
		for i, c := range l.clauses {
			b := lc.ix.Mask(lc.src, c)
			switch {
			case len(l.clauses) == 1:
				m.t = b
			case i == 0:
				m.t = b.Clone()
			case l.all:
				m.t.And(b)
			default:
				m.t.Or(b)
			}
		}
		if m.t == nil {
			m.t = bitset.New(n) // IN over NULL literals only
		}
		if nn != nil {
			m.f = bitset.New(n)
			if !l.openF {
				m.f.AndNotOf(nn, m.t)
			}
		}
	}
	if l.invert {
		m.t, m.f = m.f, m.t
	}
	return m
}

// comparisonShape extracts the (column, constant, clause op) of a
// comparison, flipping the operator when the constant is on the left
// (5 < x  ⇔  x > 5).
func comparisonShape(node *expr.Bin) (*expr.Col, *expr.Lit, predicate.Op, bool) {
	op, ok := clauseOp(node.Op)
	if !ok {
		return nil, nil, 0, false
	}
	if col, ok := node.L.(*expr.Col); ok {
		if lit, ok := node.R.(*expr.Lit); ok {
			return col, lit, op, true
		}
	}
	if lit, ok := node.L.(*expr.Lit); ok {
		if col, ok := node.R.(*expr.Col); ok {
			return col, lit, flipOp(op), true
		}
	}
	return nil, nil, 0, false
}

func clauseOp(op expr.BinOp) (predicate.Op, bool) {
	switch op {
	case expr.OpEq:
		return predicate.OpEq, true
	case expr.OpNeq:
		return predicate.OpNeq, true
	case expr.OpLt:
		return predicate.OpLt, true
	case expr.OpLe:
		return predicate.OpLe, true
	case expr.OpGt:
		return predicate.OpGt, true
	case expr.OpGe:
		return predicate.OpGe, true
	default:
		return 0, false
	}
}

func flipOp(op predicate.Op) predicate.Op {
	switch op {
	case predicate.OpLt:
		return predicate.OpGt
	case predicate.OpLe:
		return predicate.OpGe
	case predicate.OpGt:
		return predicate.OpLt
	case predicate.OpGe:
		return predicate.OpLe
	default: // = and != are symmetric
		return op
	}
}

// literalComparable reports whether engine.Compare is defined between
// values of a column's type and a literal — the condition under which
// the clause mask and the scalar evaluator agree (and neither errors).
func literalComparable(colType engine.Type, lit engine.Value) bool {
	if colType.IsNumeric() && lit.T.IsNumeric() {
		return true
	}
	return colType == engine.TString && lit.T == engine.TString
}

// ---------------------------------------------------------------------
// Trees: leaves under the Kleene combinators

// lowerable reports whether lowerTF accepts e's shape: a leaf, or
// NOT/AND/OR over lowerable operands.
func lowerable(e expr.Expr, schema engine.Schema) bool {
	if _, ok := classify(e, schema); ok {
		return true
	}
	switch node := e.(type) {
	case *expr.Not:
		return lowerable(node.X, schema)
	case *expr.Bin:
		return node.Op.IsLogic() && lowerable(node.L, schema) && lowerable(node.R, schema)
	}
	return false
}

// lowerTF lowers a lowerable tree to its TRUE/FALSE mask pair; a leaf
// at the root builds its FALSE mask only when needF.
func lowerTF(e expr.Expr, lc lowerCtx, needF bool) tfMask {
	if l, ok := classify(e, lc.src.Schema()); ok {
		return l.masks(lc, needF)
	}
	if not, ok := e.(*expr.Not); ok {
		m := lowerTF(not.X, lc, true)
		return tfMask{t: m.f, f: m.t}
	}
	node := e.(*expr.Bin) // lowerable: AND or OR
	l, r := lowerTF(node.L, lc, true), lowerTF(node.R, lc, true)
	n := lc.src.NumRows()
	out := tfMask{t: bitset.New(n), f: bitset.New(n)}
	if node.Op == expr.OpAnd {
		out.t.IntersectOf(l.t, r.t)
		out.f.CopyFrom(l.f)
		out.f.Or(r.f)
	} else {
		out.t.CopyFrom(l.t)
		out.t.Or(r.t)
		out.f.IntersectOf(l.f, r.f)
	}
	return out
}

// ---------------------------------------------------------------------
// The conjunct walker
//
// The root AND chain is walked in source order, as the scalar evaluator
// (RunReference) evaluates it, with a running mask pair: pass (rows
// still TRUE under every conjunct so far) and elig (rows not yet known
// FALSE under any earlier conjunct; pass ⊆ elig). A lowered conjunct
// ANDs its TRUE mask into pass through the fused AndCountWith kernel,
// and only when a residual conjunct follows it does it build its FALSE
// mask and remove that from elig. A residual conjunct is evaluated per
// row on elig's set bits alone: exactly the rows the scalar evaluator
// reaches it on, since Kleene AND stops only on a known FALSE and NULL
// rows stay eligible, so no error is hidden and none invented. The walk
// stops when elig is empty, or when pass is empty and no residual is
// left; the masks of the conjuncts it skips are never built. An empty
// pass alone is not enough while a residual is left: it might still
// error on an eligible row, and the scalar path would surface that
// error. OR roots, OR conjuncts and nested trees lower through the
// plain combinators above.

// fallbackFilterShape is Plan.FilterFallback's one reason a WHERE was
// evaluated entirely per row.
const fallbackFilterShape = "filter: non-lowerable predicate shape"

// filterStats records the walk for Result.Plan.
type filterStats struct {
	conjuncts         int    // root AND-chain conjuncts
	shortCircuited    int    // trailing conjuncts never evaluated
	residualConjuncts int    // conjuncts evaluated per row on eligible bits
	residualRows      int    // total residual per-row evaluations
	fallback          string // canonical reason when every conjunct was residual
}

// plan renders the walk into the filter fields of a PlanInfo.
func (fs filterStats) plan() PlanInfo {
	return PlanInfo{
		WhereLowered:         fs.fallback == "",
		FilterConjuncts:      fs.conjuncts,
		FilterShortCircuited: fs.shortCircuited,
		ResidualConjuncts:    fs.residualConjuncts,
		ResidualRows:         fs.residualRows,
		FilterFallback:       fs.fallback,
	}
}

// flattenAnd appends the non-AND leaves of e's root AND chain to out in
// source (left-to-right) order.
func flattenAnd(e expr.Expr, out []expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Bin); ok && b.Op == expr.OpAnd {
		out = flattenAnd(b.L, out)
		return flattenAnd(b.R, out)
	}
	return append(out, e)
}

// evaluator is an expression evaluated on one source row by id. It
// reuses a row buffer, so it is not safe for concurrent use.
type evaluator func(row int) (engine.Value, error)

// rowEval returns e's per-row evaluator over rr: the interpreter over a
// row buffer into which only the cells of the columns e names are read
// (Eval reads no other; expr.FuzzCompileParity holds it to that).
func rowEval(e expr.Expr, rr *engine.RowReader, schema engine.Schema) evaluator {
	var cols []int
	for _, name := range e.Columns(nil) {
		if c := schema.ColIndex(name); c >= 0 && !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
	}
	row := make([]engine.Value, len(schema))
	return func(r int) (engine.Value, error) {
		for _, c := range cols {
			row[c] = rr.Value(r, c)
		}
		return e.Eval(row)
	}
}

// walkConjuncts evaluates the AND chain parts over the rows of universe
// (nil: every row of lc.src); the bits outside it are left unset, and no
// residual is evaluated there. err carries residual evaluation errors —
// genuine expression errors the scalar path would also have surfaced on
// a universe row — and context cancellation.
func walkConjuncts(ctx context.Context, parts []expr.Expr, lc lowerCtx, universe *bitset.Bitset) (pass *bitset.Bitset, stats filterStats, err error) {
	schema := lc.src.Schema()
	residual := make([]bool, len(parts))
	lastResidual := -1
	stats = filterStats{conjuncts: len(parts)}
	for i, pe := range parts {
		if residual[i] = !lowerable(pe, schema); residual[i] {
			lastResidual = i
			stats.residualConjuncts++
		}
	}
	if stats.residualConjuncts == len(parts) {
		stats.fallback = fallbackFilterShape
	}

	n := lc.src.NumRows()
	passCount := n
	if universe != nil {
		pass, passCount = universe.Clone(), universe.Count()
	} else {
		pass = bitset.New(n)
		pass.Fill()
	}
	eligCount := passCount
	var elig *bitset.Bitset
	var rr *engine.RowReader
	if lastResidual >= 0 {
		elig = pass.Clone()
		rr = lc.src.NewRowReader()
		defer rr.Close()
	}
	residualLeft := stats.residualConjuncts
	ctxTick := 0
	for k, pe := range parts {
		if (residualLeft > 0 && eligCount == 0) || (residualLeft == 0 && passCount == 0) {
			stats.shortCircuited = len(parts) - k
			break
		}
		if !residual[k] {
			guarded := k < lastResidual
			m := lowerTF(pe, lc, guarded)
			passCount = pass.AndCountWith(m.t)
			if guarded {
				eligCount = elig.AndNotCountWith(m.f)
			}
			continue
		}
		ev := rowEval(pe, rr, schema)
		it := elig.Iter(0)
		for r, more := it.Next(); more; r, more = it.Next() {
			if ctxTick%ctxCheckRows == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return nil, filterStats{}, ctxErr(cerr)
				}
			}
			ctxTick++
			v, everr := ev(r)
			if everr != nil {
				return nil, filterStats{}, everr
			}
			stats.residualRows++
			if v.IsNull() {
				// NULL: the row can no longer pass, but Kleene AND does
				// not short-circuit on NULL — later conjuncts still see
				// it (and may error on it), so it stays eligible.
				pass.Unset(r)
			} else if !v.Bool() {
				pass.Unset(r)
				elig.Unset(r)
				eligCount--
			}
		}
		passCount = pass.Count()
		residualLeft--
	}
	return pass, stats, nil
}

// buildFilter produces the WHERE pass mask for src through
// walkConjuncts. A nil where yields a nil mask: no filtering. universe
// is the set of rows the caller will read — Advance's appended suffix,
// FilterRows' lineage; nil, a full scan's, is every row — and bounds
// residual evaluation: O(universe), not O(table), with no error from a
// row outside it.
func buildFilter(ctx context.Context, src *engine.Table, where expr.Expr, universe *bitset.Bitset) (*bitset.Bitset, filterStats, error) {
	if where == nil {
		return nil, filterStats{}, nil
	}
	lc := lowerCtx{ix: predicate.Shared(src), src: src}
	return walkConjuncts(ctx, flattenAnd(where, nil), lc, universe)
}

// FilterRows returns the rows of universe (nil: every row of src) on
// which cond — resolved against src's schema — is TRUE, through the
// statement WHERE pipeline: conjuncts that lower read the family's
// shared clause masks (which extend by the appended suffix only), the
// rest evaluate per row on universe rows alone, so an error is one the
// scalar evaluator would raise on a universe row. The PlanInfo holds the
// filter fields of the walk. A chunk-load failure is an error.
func FilterRows(ctx context.Context, src *engine.Table, cond expr.Expr, universe *bitset.Bitset) (_ *bitset.Bitset, _ PlanInfo, err error) {
	defer engine.CatchSegmentLoad(&err)
	pass, stats, err := buildFilter(ctx, src, cond, universe)
	return pass, stats.plan(), err
}
