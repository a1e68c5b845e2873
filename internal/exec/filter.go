package exec

import (
	"context"
	"slices"
	"sort"

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

// lowerCtx carries the table family's shared predicate index
// (predicate.Shared — one set of clause masks per family; it implements
// engine.RowSynced, so requesting it through a grown copy-on-write
// version rebases it and cached masks extend by decoding only the
// appended suffix) together with the exact table version the statement
// is executing against. Masks are always requested at
// src.NumRows() AND src.Base(), never at the index's own (possibly
// newer) geometry, so a query running mid-append sees masks of exactly
// its snapshot's length — and a query racing a retention pass (whose
// base the index has already rebased past) gets ok=false from every
// accessor instead of masks of a different row-id window. buildFilter
// then evaluates every conjunct as a residual, which is always correct.
type lowerCtx struct {
	ix   *predicate.Index
	src  *engine.Table
	base int
}

func (lc lowerCtx) clauseBits(c predicate.Clause) (*bitset.Bitset, bool) {
	return lc.ix.ClauseBitsAtBase(c, lc.base, lc.src.NumRows())
}

func (lc lowerCtx) nonNullBits(ci int) (*bitset.Bitset, bool) {
	return lc.clauseBits(predicate.NonNull(lc.src.Schema()[ci].Name))
}

func (lc lowerCtx) clauseCount(c predicate.Clause) (int, bool) {
	return lc.ix.ClauseCountAtBase(c, lc.base, lc.src.NumRows())
}

func (lc lowerCtx) nonNullCount(ci int) (int, bool) {
	return lc.clauseCount(predicate.NonNull(lc.src.Schema()[ci].Name))
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
// normalized so its selectivity estimate and its masks derive from one
// description: a comparison or a LIKE is one clause, BETWEEN the AND of
// two, IN the OR of one equality clause per literal.
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
// lowers unless the index refuses the table version's geometry. A
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

// est estimates the popcount of the leaf's TRUE mask from the counts
// the index caches per clause, materializing nothing. ok is false on an
// index geometry mismatch.
func (l leaf) est(lc lowerCtx) (est int, ok bool) {
	n := lc.src.NumRows()
	switch l.kind {
	case leafConst:
		if l.verdict > 0 {
			return n, true
		}
		return 0, true
	case leafIsNull:
		nn, ok := lc.nonNullCount(l.ci)
		if l.invert {
			return nn, ok
		}
		return n - nn, ok
	}
	for i, c := range l.clauses {
		cnt, ok := lc.clauseCount(c)
		if !ok {
			return 0, false
		}
		switch {
		case !l.all:
			est += cnt
		case i == 0 || cnt < est:
			est = cnt // a range matches at most its narrower bound
		}
	}
	if est > n {
		est = n
	}
	if !l.invert {
		return est, true
	}
	if l.openF {
		return 0, true // NOT IN with a NULL literal is never TRUE
	}
	nn, ok := lc.nonNullCount(l.ci)
	if est = nn - est; est < 0 {
		est = 0
	}
	return est, ok
}

// masks materializes the leaf's TRUE mask and, when needF, its FALSE
// mask (left nil otherwise — a conjunct nothing is guarded by only ever
// contributes T). The TRUE mask of a single clause aliases the index's
// shared cached bitset and is read-only. ok is false on an index
// geometry mismatch.
func (l leaf) masks(lc lowerCtx, needF bool) (m tfMask, ok bool) {
	n := lc.src.NumRows()
	if l.kind == leafConst {
		m = tfMask{t: bitset.New(n), f: bitset.New(n)}
		switch {
		case l.verdict > 0:
			m.t.Fill()
		case l.verdict < 0:
			m.f.Fill()
		}
		return m, true
	}
	var nn *bitset.Bitset
	if needF || l.invert || l.kind == leafIsNull {
		if nn, ok = lc.nonNullBits(l.ci); !ok {
			return tfMask{}, false
		}
	}
	if l.kind == leafIsNull {
		m.t = bitset.New(n)
		m.t.Fill()
		m.t.AndNot(nn)
		m.f = nn
	} else {
		for i, c := range l.clauses {
			b, ok := lc.clauseBits(c)
			switch {
			case !ok:
				return tfMask{}, false
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
	return m, true
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

// lowerTF lowers a lowerable tree to its TRUE/FALSE mask pair. ok is
// false on an index geometry mismatch.
func lowerTF(e expr.Expr, lc lowerCtx) (tfMask, bool) {
	if l, ok := classify(e, lc.src.Schema()); ok {
		return l.masks(lc, true)
	}
	if not, ok := e.(*expr.Not); ok {
		m, ok := lowerTF(not.X, lc)
		return tfMask{t: m.f, f: m.t}, ok
	}
	node := e.(*expr.Bin) // lowerable: AND or OR
	l, ok := lowerTF(node.L, lc)
	if !ok {
		return tfMask{}, false
	}
	r, ok := lowerTF(node.R, lc)
	if !ok {
		return tfMask{}, false
	}
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
	return out, true
}

// ---------------------------------------------------------------------
// The conjunct walker
//
// The pass mask of the root AND chain is the intersection of the
// conjuncts' TRUE masks — order-independent, and a conjunct's FALSE
// mask matters only to the residuals after it. That makes the chain a
// planning opportunity: AND the lowered conjuncts in ascending
// estimated-TRUE order through the fused AndCountWith kernel, and stop
// materializing once the running mask has no set bits — every remaining
// conjunct can only be skipped, never change the result. Selectivity
// estimates are the clause-mask popcounts predicate.Index caches per
// (base, length) stamp: no table statistics, in the spirit of
// janus-datalog's "greedy beats optimal" ordering result. OR roots, OR
// conjuncts and nested trees lower through the plain combinators above.
//
// The walk keeps a running mask pair — pass (rows still TRUE under
// every conjunct so far) and elig (rows not yet known FALSE under any
// source-earlier conjunct) — and evaluates each residual conjunct per
// row only on elig's set bits. Eligibility must reflect exactly the
// conjuncts that precede a residual in source order, because that is
// the set of rows the scalar evaluator would reach it on (Kleene AND
// short-circuits only on known FALSE, so NULL rows stay eligible):
// lowered conjuncts may be reordered greedily *within* a run between
// residuals, but never across one, and a guarded conjunct contributes
// its FALSE mask to elig where a trailing one only narrows pass. The
// residual loop can be skipped only when elig is empty — an empty pass
// alone is not enough, since a residual might still error on an
// eligible row and the scalar path would surface that error.

// Canonical Plan.FilterFallback vocabulary: the two reasons a WHERE was
// evaluated entirely per row.
const (
	fallbackFilterShape    = "filter: non-lowerable predicate shape"
	fallbackFilterGeometry = "filter: predicate index geometry mismatch"
)

// filterStats records the walk for Result.Plan.
type filterStats struct {
	conjuncts         int    // root AND-chain conjuncts
	order             []int  // evaluation order, as source-position indexes
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
		FilterOrder:          fs.order,
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

// conjunct is one root AND-chain conjunct in the walk: lowered
// conjuncts carry masks (the full T/F pair when guarded, T only when
// trailing), residual conjuncts are evaluated per row on eligible bits
// at their source position.
type conjunct struct {
	e        expr.Expr
	pos      int
	est      int
	residual bool
	guarded  bool   // a residual conjunct follows in source order
	lazy     *leaf  // trailing leaf whose TRUE mask waits behind the empty cut
	m        tfMask // every other lowered conjunct, materialized up front
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
// residual is evaluated there. With allResidual the index is never
// consulted. geometry reports an index geometry mismatch (the caller
// re-walks with allResidual); err carries residual evaluation errors —
// genuine expression errors the scalar path would also have surfaced on
// a universe row — and context cancellation.
func walkConjuncts(ctx context.Context, parts []expr.Expr, lc lowerCtx, universe *bitset.Bitset, allResidual bool) (pass *bitset.Bitset, stats filterStats, geometry bool, err error) {
	schema := lc.src.Schema()
	conj := make([]conjunct, len(parts))
	lastResidual := -1
	stats = filterStats{conjuncts: len(parts), order: make([]int, len(parts))}
	for i, pe := range parts {
		conj[i] = conjunct{e: pe, pos: i, residual: allResidual || !lowerable(pe, schema)}
		if conj[i].residual {
			lastResidual = i
			stats.residualConjuncts++
		}
	}
	if stats.residualConjuncts == len(parts) {
		stats.fallback = fallbackFilterShape
	}

	// Estimates and masks. Guarded conjuncts (source-before the last
	// residual) need the full T/F pair — their FALSE mask feeds
	// eligibility — and can never be skipped, so they lower eagerly, as
	// do trees the index holds no count for. Trailing leaves stay lazy.
	for i := range conj {
		c := &conj[i]
		if c.residual {
			continue
		}
		c.guarded = c.pos < lastResidual
		ok := true
		if l, isLeaf := classify(c.e, schema); isLeaf && !c.guarded {
			c.lazy = &l
			c.est, ok = l.est(lc)
		} else if c.m, ok = lowerTF(c.e, lc); ok {
			c.est = c.m.t.Count()
		}
		if !ok {
			return nil, filterStats{}, true, nil
		}
	}

	// Residuals stay at their source positions (eligibility is defined
	// by source order); lowered conjuncts sort ascending-estimate within
	// each run between residuals.
	planned := make([]*conjunct, len(conj))
	for i := range conj {
		planned[i] = &conj[i]
	}
	for lo := 0; lo < len(planned); {
		hi := lo
		for hi < len(planned) && !planned[hi].residual {
			hi++
		}
		run := planned[lo:hi]
		sort.SliceStable(run, func(a, b int) bool { return run[a].est < run[b].est })
		lo = hi + 1
	}
	for i, c := range planned {
		stats.order[i] = c.pos
	}

	// pass = rows TRUE under every conjunct so far; elig = rows not known
	// FALSE under any source-earlier conjunct (pass ⊆ elig).
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
	for k, c := range planned {
		// With residuals pending, stop only when every row already has a
		// known-FALSE conjunct: the AND is FALSE everywhere and the scalar
		// evaluator reaches no residual on any row, so skipping the rest
		// cannot hide an error. Without, an empty TRUE mask is enough.
		if (residualLeft > 0 && eligCount == 0) || (residualLeft == 0 && passCount == 0) {
			stats.shortCircuited = len(planned) - k
			break
		}
		switch {
		case c.residual:
			ev := rowEval(c.e, rr, schema)
			it := elig.Iter(0)
			for r, more := it.Next(); more; r, more = it.Next() {
				if ctxTick%ctxCheckRows == 0 {
					if cerr := ctx.Err(); cerr != nil {
						return nil, filterStats{}, false, ctxErr(cerr)
					}
				}
				ctxTick++
				v, everr := ev(r)
				if everr != nil {
					return nil, filterStats{}, false, everr
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
		case c.guarded:
			passCount = pass.AndCountWith(c.m.t)
			eligCount = elig.AndNotCountWith(c.m.f)
		default:
			if c.lazy != nil {
				var ok bool
				if c.m, ok = c.lazy.masks(lc, false); !ok {
					return nil, filterStats{}, true, nil
				}
			}
			passCount = pass.AndCountWith(c.m.t)
		}
	}
	return pass, stats, false, nil
}

// buildFilter produces the WHERE pass mask for src through
// walkConjuncts. A nil where yields a nil mask: no filtering. When the
// predicate index cannot serve this table version's geometry (a
// superseded snapshot racing retention) the chain is walked again with
// every conjunct residual. universe is the set of rows the caller will
// read — Advance's appended suffix, FilterRows' lineage; nil, a full
// scan's, is every row — and bounds residual evaluation: O(universe),
// not O(table), with no error from a row outside it.
func buildFilter(ctx context.Context, src *engine.Table, where expr.Expr, universe *bitset.Bitset) (*bitset.Bitset, filterStats, error) {
	if where == nil {
		return nil, filterStats{}, nil
	}
	lc := lowerCtx{ix: predicate.Shared(src), src: src, base: src.Base()}
	parts := flattenAnd(where, nil)
	pass, stats, geometry, err := walkConjuncts(ctx, parts, lc, universe, false)
	if geometry {
		pass, stats, _, err = walkConjuncts(ctx, parts, lc, universe, true)
		stats.fallback = fallbackFilterGeometry
	}
	if err != nil {
		return nil, filterStats{}, err
	}
	return pass, stats, nil
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
