// Package exec plans and executes the single-block aggregate queries
// produced by internal/sqlparse against internal/engine tables, and —
// crucially for DBWipes — exposes fine-grained provenance: every output
// group's exact set of source row ids (its *lineage*) that flowed into
// its aggregates.
//
// The original DBWipes runs on PostgreSQL and reconstructs lineage with
// rewritten queries when the user zooms or debugs; here too a grouped
// result builds its provenance on first read, with one pass of the scan's
// own filter and grouping stages and none of its folds, so a query that
// is never zoomed into holds no row ids. The Result type is the hand-off
// point to the ranked provenance pipeline: it exposes the live aggregate
// states, and its Provenance value the lineage sets and each aggregate's
// argument as a flat column.
package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
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
// accumulated over its input, and its row count. Its lineage (source row
// ids) is read through the result's Provenance.
type Group struct {
	// Key holds the evaluated GROUP BY expressions for this group (empty
	// for a global aggregate).
	Key []engine.Value
	// Rows counts the source rows that passed WHERE and fell into this
	// group: the length of its lineage.
	Rows int
	// id is the group's position in its result's scan order (allGroups).
	id int
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
	// prov is the result's provenance once built (columnar.go). Until
	// then anc is the nearest built ancestor's an Advance recorded, which
	// the build extends (nil: none). provMu serializes the build.
	provMu sync.Mutex
	prov   atomic.Pointer[Provenance]
	anc    atomic.Pointer[Provenance]
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
	groupsByKey := make(map[string]int) // key → position in groups
	var groups []*Group
	var lineage [][]int // by group
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
			groups, lineage = append(groups, &Group{Rows: 1, FirstRow: r}), append(lineage, []int{r})
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
		gi, ok := groupsByKey[key]
		if !ok {
			gi = len(groups)
			groupsByKey[key] = gi
			groups = append(groups, &Group{Key: append([]engine.Value(nil), keyVals...), FirstRow: r})
			lineage = append(lineage, nil)
		}
		grp := groups[gi]
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
		grp.Rows++
		lineage[gi] = append(lineage[gi], r)
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
	res.prov.Store(res.newProvenance(lineage))
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
// lineage is exactly its one source row, its FirstRow. The WHERE filter
// is the same buildFilter mask the grouped scan consumes.
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
			res.Groups = append(res.Groups, &Group{Rows: 1, FirstRow: r})
		}
		return res, res.materialize()
	}
	filter.ForEach(func(r int) {
		res.Groups = append(res.Groups, &Group{Rows: 1, FirstRow: r})
	})
	return res, res.materialize()
}

// materialize builds the result table from groups and applies HAVING,
// ORDER BY and LIMIT to Groups, numbering each group by its scan
// position (Group.id) first.
// Advance materializes the same way, re-sorting every output group: a
// monitoring query has tens of groups, too few for a carried order to
// pay.
func (r *Result) materialize() error {
	r.allGroups = r.Groups
	for gi, g := range r.Groups {
		g.id = gi
	}
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

	// HAVING, ORDER BY and LIMIT prune and reorder Groups; a group's
	// output row is rows[g.id].
	if stmt.Having != nil {
		if err := stmt.Having.Resolve(schema); err != nil {
			return fmt.Errorf("exec: HAVING references output columns (%s): %w", schema, err)
		}
		var kept []*Group
		for _, g := range r.Groups {
			ok, err := expr.EvalBool(stmt.Having, rows[g.id])
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, g)
			}
		}
		r.Groups = kept
	}
	if len(stmt.OrderBy) > 0 {
		for i := range stmt.OrderBy {
			if err := stmt.OrderBy[i].Expr.Resolve(schema); err != nil {
				return fmt.Errorf("exec: ORDER BY references output columns (%s): %w", schema, err)
			}
		}
		keys := make([][]engine.Value, len(rows))
		for _, g := range r.Groups {
			keys[g.id] = make([]engine.Value, len(stmt.OrderBy))
			for k := range stmt.OrderBy {
				v, err := stmt.OrderBy[k].Expr.Eval(rows[g.id])
				if err != nil {
					return err
				}
				keys[g.id][k] = v
			}
		}
		r.Groups = slices.Clone(r.Groups) // allGroups keeps the scan order
		slices.SortStableFunc(r.Groups, func(a, b *Group) int {
			for k, o := range stmt.OrderBy {
				if c, err := engine.Compare(keys[a.id][k], keys[b.id][k]); err == nil && c != 0 {
					if o.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	if stmt.Limit >= 0 && stmt.Limit < len(r.Groups) {
		r.Groups = r.Groups[:stmt.Limit]
	}
	outRows := make([][]engine.Value, len(r.Groups))
	for i, g := range r.Groups {
		outRows[i] = rows[g.id]
	}

	out, err := engine.NewTable("result", schema)
	if err != nil {
		return err
	}
	if out, err = out.AppendBatch(outRows); err != nil {
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
// Provenance.ArgView.
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
// ascending and deduplicated: Provenance(ctx).Lineage under the
// background context. A build failure panics with its error (a
// *engine.SegmentLoadError), as engine.ColReader does; request paths
// build the value under their context first.
func (r *Result) Lineage(rowIdxs []int) []int {
	v, err := r.Provenance(context.Background())
	if err != nil {
		panic(err)
	}
	return v.Lineage(rowIdxs)
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
