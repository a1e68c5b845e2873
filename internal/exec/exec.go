// Package exec plans and executes the single-block aggregate queries
// produced by internal/sqlparse against internal/engine tables, and —
// crucially for DBWipes — captures fine-grained provenance while doing
// so: every output group records the exact set of source row ids
// (its *lineage*) that flowed into its aggregates.
//
// The original DBWipes runs on PostgreSQL and reconstructs lineage with
// rewritten queries; here lineage falls out of the hash-aggregation loop
// for free. The Result type is the hand-off point to the ranked
// provenance pipeline: it exposes lineage sets, the live aggregate
// states, and each aggregate's argument as a flat column.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// ctxCheckRows is the cancellation-check granularity of every per-row
// scan loop: ctx.Err() is polled once per this many rows (an atomic
// load on cancellable contexts, a nil return on Background), so the
// checks cost nothing measurable on the uncontended hot path while a
// cancelled giant scan still stops within tens of microseconds.
const ctxCheckRows = 4096

// ctxErr wraps a cancellation surfaced mid-scan so callers can still
// errors.Is it against context.Canceled / context.DeadlineExceeded.
func ctxErr(err error) error { return fmt.Errorf("exec: cancelled: %w", err) }

// Group is one output group: its key values, the aggregate states
// accumulated over its input, and the lineage (source row ids).
type Group struct {
	// Key holds the evaluated GROUP BY expressions for this group (empty
	// for a global aggregate).
	Key []engine.Value
	// Lineage lists the source row ids that passed WHERE and fell into
	// this group, in scan order.
	Lineage []int
	// Aggs holds one live aggregate state per aggregate select item.
	Aggs []agg.Func
	// FirstRow is the first source row id of the group: the row Key was
	// evaluated on (and a projection's select items are).
	FirstRow int
	// done folds the group's partial states of the complete fold blocks,
	// tail holds its float sums' partials of the last, incomplete block
	// (nil when it had no row there or no state is a float sum; every
	// other state folds that block into done), and Aggs is done ⊕ tail —
	// done itself when there is no tail. Advance folds on from them
	// (vector.go).
	done, tail []agg.Func
}

// Result is an executed query: an ordinary result table plus the
// provenance sidecar.
type Result struct {
	// Stmt is the executed statement.
	Stmt *sqlparse.SelectStmt
	// Source is the scanned table.
	Source *engine.Table
	// Table is the materialized result (post HAVING/ORDER BY/LIMIT).
	Table *engine.Table
	// Groups is parallel to Table's rows.
	Groups []*Group
	// aggArgs[i] is the resolved argument expression of the i'th
	// aggregate select item (nil for count(*)).
	aggArgs []expr.Expr
	// aggItems maps aggregate ordinal -> select item index.
	aggItems []int
	// Plan records which execution strategy produced this result.
	Plan PlanInfo
	// allGroups retains every group in scan order, before HAVING/ORDER
	// BY/LIMIT pruned or reordered Groups — the set Advance folds
	// appended rows into.
	allGroups []*Group
	// argMu guards argViews (the per-ordinal flat argument columns the
	// columnar scoring fast path decodes on first use, see columnar.go),
	// lineBits (the per-group lineage bitset cache Advance carries
	// across batches), and the advanced flag.
	argMu    sync.Mutex
	argViews map[int]*ArgView
	lineBits map[*Group]*bitset.Bitset
	// advanced marks a result that has already been advanced once;
	// Advance extends lineage slices and argument views in place past
	// their published lengths, so advancing must be linear — a second
	// Advance from the same result would clobber the first's suffix.
	advanced bool
}

// RunCtx executes stmt against db, capturing provenance. Scan loops
// poll ctx at ctxCheckRows granularity and return a context error
// (wrapping context.Canceled / DeadlineExceeded) without publishing
// anything.
func RunCtx(ctx context.Context, db *engine.DB, stmt *sqlparse.SelectStmt) (*Result, error) {
	src, err := db.Table(stmt.From)
	if err != nil {
		return nil, err
	}
	return RunOnWithCtx(ctx, src, stmt)
}

// RunSQL parses and executes sql against db.
func RunSQL(db *engine.DB, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return RunCtx(context.Background(), db, stmt)
}

// RunOn executes stmt against an explicit source table (the FROM name
// is ignored). This is what clean-and-requery uses to run the original
// statement against a filtered view.
func RunOn(src *engine.Table, stmt *sqlparse.SelectStmt) (*Result, error) {
	return RunOnWithCtx(context.Background(), src, stmt)
}

// RunOnWithCtx is RunOn under a cancellable context (see RunCtx).
// Grouped statements run the fold-block scan in vector.go — an Advance
// from the empty result — aggregate-free ones runProjection. A chunk-load
// failure on an out-of-core table (corrupt or vanished segment file)
// surfaces here as an error, never as a panic.
func RunOnWithCtx(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt) (res *Result, err error) {
	defer engine.CatchSegmentLoad(&err)
	aggArgs, aggItems, protos, err := prepare(src, stmt)
	if err != nil {
		return nil, err
	}
	if !isGrouped(stmt) {
		return runProjection(ctx, src, stmt)
	}
	return runVector(ctx, src, stmt, aggArgs, aggItems, protos, nil, 0)
}

func isGrouped(stmt *sqlparse.SelectStmt) bool {
	return stmt.HasAggregates() || len(stmt.GroupBy) > 0
}

// prepare resolves every expression of stmt against src's schema,
// checks the grouped select list, and builds the prototype aggregates
// (cloned per group): aggArgs[i] is the i'th aggregate's argument (nil
// for count(*)), aggItems[i] its select-item index.
func prepare(src *engine.Table, stmt *sqlparse.SelectStmt) (aggArgs []expr.Expr, aggItems []int, protos []agg.Func, err error) {
	if len(stmt.Items) == 0 {
		return nil, nil, nil, fmt.Errorf("exec: empty select list")
	}
	schema := src.Schema()
	if stmt.Where != nil {
		if err := stmt.Where.Resolve(schema); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, g := range stmt.GroupBy {
		if err := g.Resolve(schema); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := range stmt.Items {
		item := &stmt.Items[i]
		if !item.IsAgg() {
			if err := item.Expr.Resolve(schema); err != nil {
				return nil, nil, nil, err
			}
			continue
		}
		if item.Agg.Arg != nil {
			if err := item.Agg.Arg.Resolve(schema); err != nil {
				return nil, nil, nil, err
			}
		}
		aggArgs = append(aggArgs, item.Agg.Arg)
		aggItems = append(aggItems, i)
	}
	if !isGrouped(stmt) {
		return nil, nil, nil, nil
	}
	if err := checkPlainItemsGrouped(stmt); err != nil {
		return nil, nil, nil, err
	}
	protos, err = newProtos(stmt, aggItems)
	return aggArgs, aggItems, protos, err
}

// newProtos builds one fresh aggregate state per aggregate select item.
func newProtos(stmt *sqlparse.SelectStmt, aggItems []int) ([]agg.Func, error) {
	protos := make([]agg.Func, len(aggItems))
	for ai, i := range aggItems {
		f, err := agg.New(stmt.Items[i].Agg.Name)
		if err != nil {
			return nil, err
		}
		if stmt.Items[i].Agg.Distinct {
			f = agg.NewDistinct(f)
		}
		protos[ai] = f
	}
	return protos, nil
}

// RunReference is the boxed reference scan: row-at-a-time WHERE
// evaluation through expr.EvalBool, string group keys, boxed aggregate
// arguments, one goroutine. It is the oracle the differential tests
// pin RunOnWithCtx and Advance to — rows, group order, lineage,
// FirstRow, error presence, float bits — and shares with them, below
// prepare and materialize, only the states' AddFloat arithmetic (through
// agg.Add) and the association rule: a group's rows of one fold block
// fold into a fresh state, and the block states fold left in block
// order. Nothing outside tests calls it.
func RunReference(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt) (res *Result, err error) {
	defer engine.CatchSegmentLoad(&err)
	aggArgs, aggItems, protos, err := prepare(src, stmt)
	if err != nil {
		return nil, err
	}
	grouped := isGrouped(stmt)
	groupsByKey := make(map[string]*Group)
	var groups []*Group
	row := make([]engine.Value, src.NumCols())
	var keyBuf strings.Builder
	keyVals := make([]engine.Value, len(stmt.GroupBy))
	rr := src.NewRowReader()
	defer rr.Close()
	// part is each group's state over the current fold block; fold folds
	// them into their groups' Aggs when the block ends.
	b, blk, part := min(foldRows, src.SegRows()), 0, make(map[*Group][]agg.Func)
	fold := func() error {
		defer clear(part)
		for g, st := range part {
			if g.Aggs == nil {
				g.Aggs = st
				continue
			}
			for i := range st {
				if !g.Aggs[i].Merge(st[i]) {
					return errMerge
				}
			}
		}
		return nil
	}

	for r := 0; r < src.NumRows(); r++ {
		if r%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, ctxErr(err)
			}
		}
		rr.RowInto(r, row)
		if stmt.Where != nil {
			ok, err := expr.EvalBool(stmt.Where, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if !grouped { // projection: every passing row is its own group
			groups = append(groups, &Group{Lineage: []int{r}, FirstRow: r})
			continue
		}
		keyBuf.Reset()
		for k, g := range stmt.GroupBy {
			v, err := g.Eval(row)
			if err != nil {
				return nil, err
			}
			keyVals[k] = v
			keyBuf.WriteString(v.Key())
			keyBuf.WriteByte('\x1f')
		}
		key := keyBuf.String()
		grp, ok := groupsByKey[key]
		if !ok {
			grp = &Group{Key: append([]engine.Value(nil), keyVals...), FirstRow: r}
			groupsByKey[key] = grp
			groups = append(groups, grp)
		}
		if r/b != blk {
			if err := fold(); err != nil {
				return nil, err
			}
			blk = r / b
		}
		st, ok := part[grp]
		if !ok {
			st = fresh(protos)
			part[grp] = st
		}
		grp.Lineage = append(grp.Lineage, r)
		for ai := range aggArgs {
			if aggArgs[ai] == nil { // count(*)
				st[ai].AddFloat(1)
				continue
			}
			v, err := aggArgs[ai].Eval(row)
			if err != nil {
				return nil, err
			}
			agg.Add(st[ai], v)
		}
	}
	if err := fold(); err != nil {
		return nil, err
	}

	res = &Result{
		Stmt: stmt, Source: src, Groups: groups,
		aggArgs: aggArgs, aggItems: aggItems,
	}
	if err := res.materialize(); err != nil {
		return nil, err
	}
	return res, nil
}

// checkPlainItemsGrouped verifies every non-aggregate select item is one
// of the GROUP BY expressions. This catches the classic "column must
// appear in the GROUP BY clause" error early, and it is what lets
// materialize take those items from Group.Key without reading a row.
func checkPlainItemsGrouped(stmt *sqlparse.SelectStmt) error {
	for i := range stmt.Items {
		if item := &stmt.Items[i]; !item.IsAgg() && groupKeyIndex(stmt, item.Expr) < 0 {
			return fmt.Errorf("exec: select item %q must appear in GROUP BY", item.Expr)
		}
	}
	return nil
}

// groupKeyIndex returns the position of the GROUP BY expression e is
// (expr.Equal: names fold case like the resolver, literals are exact),
// or -1.
func groupKeyIndex(stmt *sqlparse.SelectStmt, e expr.Expr) int {
	for k, g := range stmt.GroupBy {
		if expr.Equal(e, g) {
			return k
		}
	}
	return -1
}

// runProjection handles aggregate-free statements: each output row's
// lineage is exactly its one source row. The WHERE filter is the same
// buildFilter mask the grouped scan consumes.
func runProjection(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt) (*Result, error) {
	filter, fstats, err := buildFilter(ctx, src, stmt.Where, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Stmt: stmt, Source: src, Plan: fstats.plan()}
	if filter == nil {
		for r := 0; r < src.NumRows(); r++ {
			if r%ctxCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, ctxErr(err)
				}
			}
			res.Groups = append(res.Groups, &Group{Lineage: []int{r}, FirstRow: r})
		}
		return res, res.materialize()
	}
	filter.ForEach(func(r int) {
		res.Groups = append(res.Groups, &Group{Lineage: []int{r}, FirstRow: r})
	})
	return res, res.materialize()
}

// materialize builds the result table from groups and applies HAVING,
// ORDER BY and LIMIT (keeping Groups parallel to rows throughout).
// Advance materializes the same way, re-sorting every output group: a
// monitoring query has tens of groups, too few for a carried order to
// pay.
func (r *Result) materialize() error {
	r.allGroups = r.Groups
	stmt := r.Stmt
	labels := make([]string, len(stmt.Items))
	for i := range stmt.Items {
		labels[i] = stmt.Items[i].Label()
	}

	// A grouped statement's plain items are its group keys
	// (checkPlainItemsGrouped): Group.Key has them, no source row is read.
	// A projection evaluates its items on each group's one row.
	plain := make([]func(*Group) (engine.Value, error), len(stmt.Items))
	var rr *engine.RowReader
	if !isGrouped(stmt) {
		rr = r.Source.NewRowReader()
		defer rr.Close()
	}
	for i := range stmt.Items {
		if item := &stmt.Items[i]; rr != nil {
			ev := rowEval(item.Expr, rr, r.Source.Schema())
			plain[i] = func(g *Group) (engine.Value, error) { return ev(g.FirstRow) }
		} else if !item.IsAgg() {
			k := groupKeyIndex(stmt, item.Expr)
			plain[i] = func(g *Group) (engine.Value, error) { return g.Key[k], nil }
		}
	}

	// Evaluate all output rows first, then infer column types.
	rows := make([][]engine.Value, len(r.Groups))
	for gi, grp := range r.Groups {
		out := make([]engine.Value, len(stmt.Items))
		aggOrd := 0
		for i := range stmt.Items {
			if stmt.Items[i].IsAgg() {
				out[i] = grp.Aggs[aggOrd].Result()
				aggOrd++
				continue
			}
			v, err := plain[i](grp)
			if err != nil {
				return err
			}
			out[i] = v
		}
		rows[gi] = out
	}

	schema := make(engine.Schema, len(stmt.Items))
	for c := range stmt.Items {
		t := engine.TFloat
		for _, row := range rows {
			if !row[c].IsNull() {
				t = row[c].T
				break
			}
		}
		schema[c] = engine.Column{Name: labels[c], Type: t}
	}
	// Guard against duplicate labels (e.g. two identical aggregates).
	seen := map[string]int{}
	for c := range schema {
		lower := strings.ToLower(schema[c].Name)
		if n := seen[lower]; n > 0 {
			schema[c].Name = fmt.Sprintf("%s_%d", schema[c].Name, n)
		}
		seen[lower]++
	}

	// HAVING over output rows.
	if stmt.Having != nil {
		if err := stmt.Having.Resolve(schema); err != nil {
			return fmt.Errorf("exec: HAVING references output columns (%s): %w", schema, err)
		}
		var keptRows [][]engine.Value
		var keptGroups []*Group
		for i, row := range rows {
			ok, err := expr.EvalBool(stmt.Having, row)
			if err != nil {
				return err
			}
			if ok {
				keptRows = append(keptRows, row)
				keptGroups = append(keptGroups, r.Groups[i])
			}
		}
		rows, r.Groups = keptRows, keptGroups
	}

	// ORDER BY over output rows.
	if len(stmt.OrderBy) > 0 {
		for i := range stmt.OrderBy {
			if err := stmt.OrderBy[i].Expr.Resolve(schema); err != nil {
				return fmt.Errorf("exec: ORDER BY references output columns (%s): %w", schema, err)
			}
		}
		keys := make([][]engine.Value, len(rows))
		for i, row := range rows {
			ks := make([]engine.Value, len(stmt.OrderBy))
			for k := range stmt.OrderBy {
				v, err := stmt.OrderBy[k].Expr.Eval(row)
				if err != nil {
					return err
				}
				ks[k] = v
			}
			keys[i] = ks
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for k := range stmt.OrderBy {
				c, err := engine.Compare(keys[idx[a]][k], keys[idx[b]][k])
				if err != nil {
					continue
				}
				if c != 0 {
					if stmt.OrderBy[k].Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		newRows := make([][]engine.Value, len(rows))
		newGroups := make([]*Group, len(rows))
		for i, j := range idx {
			newRows[i] = rows[j]
			newGroups[i] = r.Groups[j]
		}
		rows, r.Groups = newRows, newGroups
	}

	if stmt.Limit >= 0 && stmt.Limit < len(rows) {
		rows = rows[:stmt.Limit]
		r.Groups = r.Groups[:stmt.Limit]
	}

	out, err := engine.NewTable("result", schema)
	if err != nil {
		return err
	}
	if out, err = out.AppendBatch(rows); err != nil {
		return err
	}
	r.Table = out
	return nil
}

// ---------------------------------------------------------------------
// Provenance accessors

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return r.Table.NumRows() }

// AggOrdinals returns the select-item indexes of aggregates, in order.
func (r *Result) AggOrdinals() []int { return r.aggItems }

// AggOrdinalOf maps a select-item index to the aggregate ordinal, or -1.
func (r *Result) AggOrdinalOf(itemIdx int) int {
	for ord, i := range r.aggItems {
		if i == itemIdx {
			return ord
		}
	}
	return -1
}

// AggFloat returns the aggregate value at (output row, aggregate
// ordinal) as float64; NaN-free NULLs come back as (0, false).
func (r *Result) AggFloat(rowIdx, ord int) (float64, bool) {
	v := r.Groups[rowIdx].Aggs[ord].Result()
	if v.IsNull() {
		return 0, false
	}
	return v.Float(), true
}

// AggArgValue returns, boxed, what the scan fed the ord'th aggregate's
// state for source row src: the argument evaluated on the whole boxed row
// (count(*) yields 1) — or, where the pipeline fed count(DISTINCT s) the
// column's dictionary codes (argSource), that code, so that what the
// reference scorer (influence.EpsWithoutRows, this method's caller)
// removes is in the state's identity domain. Production reads
// AggArgFloats.
func (r *Result) AggArgValue(ord, src int) (engine.Value, error) {
	if r.aggArgs[ord] == nil {
		return engine.NewInt(1), nil
	}
	if a := argSource(r.Source.Schema(), r.aggCall(ord)); a.kind == argDict && r.Plan.Vectorized {
		cr := r.Source.NewColReader(a.col)
		defer cr.Close()
		if c := cr.Code(src); c >= 0 {
			return engine.NewInt(int64(c)), nil
		}
		return engine.Null, nil
	}
	return r.aggArgs[ord].Eval(r.Source.Row(src))
}

// Lineage returns the union of the lineage of the given output rows,
// sorted ascending and deduplicated. This is F in the paper: the
// fine-grained provenance of the suspect groups S. The union runs
// through a bitmap, so dedup and sort order fall out of bit position.
func (r *Result) Lineage(rowIdxs []int) []int {
	return r.LineageBits(rowIdxs).Rows()
}

// AllRows returns 0..NumRows-1, convenient for "every group is suspect".
func (r *Result) AllRows() []int {
	out := make([]int, r.NumRows())
	for i := range out {
		out[i] = i
	}
	return out
}

// SelectRows returns the output row indexes for which keep returns true,
// where keep receives the output row values.
func (r *Result) SelectRows(keep func(row []engine.Value) bool) []int {
	var out []int
	for i := 0; i < r.Table.NumRows(); i++ {
		if keep(r.Table.Row(i)) {
			out = append(out, i)
		}
	}
	return out
}
