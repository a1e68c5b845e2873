package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sqlparse"
)

// This file is the grouped scan — the one pipeline every grouped
// statement runs on, fresh or by Advance:
//
//  1. WHERE evaluates once into a bitmap (filter.go),
//  2. par.Do hands the fold blocks (foldRows row ids; an out-of-core
//     segment's together) to its workers, one scanner each, which walk
//     them block-at-a-time (at most blockRows rows of one segment),
//     passing rows as a selection vector,
//  3. each group-by expression fills one key slot per selected row —
//     dictionary codes for string columns, canonical float bits for
//     numeric columns and numeric computed keys (expr.FloatKernel: loops
//     over the block's typed chunks), a per-row evaluator for anything
//     else and for a block the kernel declines (interned codes when it
//     yields strings) — looked up through a dense slot table (one string
//     column), a uint64 map (one key of any other kind) or a byte-string
//     map (two or more keys),
//  4. the selection splits into runs of equal key slots — a global
//     aggregate's block is one run — and each run takes one group lookup,
//     one row-count bump and, per numeric argument, one AddFloats call
//     over the chunk slices (Add per row only for what a per-row
//     evaluator yields), into the block's own partial states, and
//  5. the block partials fold left in block order — the sequential
//     scan's group order, row counts and FirstRow, and float bits the
//     table fixes: the core count decides only who scans a block.
//
// No step records lineage: a result's first read runs steps 1–4 again on
// one scanner, appending each run's row ids to its group's lineage
// (lineage, Result.Provenance).
//
// RunReference (exec.go) is the boxed oracle the randomized parity tests
// pin this pipeline to, bit for bit, folding by the same blocks.

// PlanInfo records what an execution actually did; tests, the server's
// stats and the benchmark's attribution read it.
type PlanInfo struct {
	// Vectorized is true when the grouped pipeline produced the result
	// (false for aggregate-free projections and for RunReference).
	Vectorized bool
	// WhereLowered is true when at least one WHERE conjunct was evaluated
	// through bitmap clause masks rather than per row. Meaningful for
	// projections too; true when there is no WHERE.
	WhereLowered bool
	// Shards is the number of fold blocks the pipeline scanned (0 when
	// it did not run). The name is kept because the benchmark module
	// (bench/) reads it.
	Shards int
	// Fallback names the reason an Advance re-ran the statement over the
	// whole table instead of folding in the suffix ("" otherwise; always
	// "" on a fresh run).
	Fallback string
	// Incremental is true when Advance produced this result by folding
	// only appended rows into the previous result's group states instead
	// of rescanning the table.
	Incremental bool
	// SegsSkipped counts out-of-core segments the scan never touched
	// because zone-map pruning left their filter words all zero — no
	// rows scanned, no chunks faulted.
	SegsSkipped int
	// ChunksFaulted counts segment-cursor pins that missed to disk
	// during the scan (out-of-core tables only).
	ChunksFaulted int
	// ChunksResident counts segment-cursor pins served from memory —
	// resident chunks or buffer-pool hits.
	ChunksResident int
	// FilterConjuncts is the number of conjuncts in the WHERE's root AND
	// chain (0 when there is no WHERE).
	FilterConjuncts int
	// FilterShortCircuited counts the trailing conjuncts, in source
	// order, the walk never evaluated and whose masks it never built: the
	// rows still TRUE ran out first (with a residual left, the rows not
	// yet known FALSE did).
	FilterShortCircuited int
	// ResidualConjuncts counts WHERE conjuncts that did not lower and
	// were evaluated per row, only on the bits the conjuncts before them
	// had not ruled out.
	ResidualConjuncts int
	// ResidualRows is the total number of per-row residual evaluations.
	ResidualRows int
	// FilterFallback is the canonical reason every conjunct was residual
	// ("" when something lowered or there was no WHERE): "filter:
	// non-lowerable predicate shape", the one reason there is — every
	// table version, a superseded one too, lowers on its own masks.
	FilterFallback string
	// MaskedAgg is true when a global (no GROUP BY) aggregation under a
	// WHERE has only count(*) and numeric-column arguments, so every
	// argument folds from chunk slices, one AddFloats a block. That fold
	// is every statement's; the field is kept because the benchmark
	// module (bench/) reads it.
	MaskedAgg bool
	// KeyKernels counts the GROUP BY keys planned as typed chunk kernels
	// (numeric computed keys, expr.CompileFloat). It counts keys, not
	// blocks: a block the kernel declines at run time falls to the per-row
	// evaluator without changing it.
	KeyKernels int
	// SortCarried is always false: Advance re-sorts its output groups.
	// The field is kept only because the benchmark module (bench/) reads
	// it.
	SortCarried bool
}

const (
	// foldRows is the fold block: each block of foldRows row ids (a
	// segment, when smaller: a block never straddles one, so retention
	// drops whole blocks) folds its rows in row order into states of its
	// own. Large enough that per-block setup and the fold never dominate,
	// small enough that a table of a few segments spreads over the cores.
	foldRows = 16384
	// blockRows bounds a scan block, a fold block's unit of work: small
	// enough that a block's scratch (selection, slots, kernel buffers)
	// stays in L1/L2 and a selective scan allocates little, large enough
	// to amortize per-block setup.
	blockRows = 1024
	// nullSlot is the key slot of NULL. It is a NaN bit pattern
	// canonSlot never produces (canonSlot maps every NaN to one
	// canonical pattern), so it cannot collide with a real value.
	nullSlot = ^uint64(0)
	// canonNaN is the canonical NaN slot. The reference scan's string
	// keys render every NaN as "NaN", so all NaNs must land in one group.
	canonNaN = 0x7FF8000000000000
	// strSlotBase is the slot of the first interned string key; later
	// strings count up from it. These are positive quiet-NaN payloads:
	// canonSlot emits no NaN pattern but canonNaN, and nullSlot is 2^51
	// codes away, so a string can collide with neither a number nor NULL
	// — the same separation Value.Key()'s type prefix gives the
	// reference scan.
	strSlotBase = canonNaN + 1
)

// canonSlot maps a float64 to its group key slot with the same equality
// engine.Equal (and the reference scan's Value.Key() strings) induce:
// every NaN collapses to one slot, -0 canonicalizes to +0 (IEEE ==
// treats them as equal, so grouping must not split them), and all
// numeric types compare through their float64 coercion.
func canonSlot(f float64) uint64 {
	if f != f {
		return canonNaN
	}
	if f == 0 {
		return 0 // +0.0 bits; -0.0 lands here too
	}
	return math.Float64bits(f)
}

type keyKind int

const (
	kindDict   keyKind = iota // string column: dictionary code
	kindFloat                 // numeric column: canonical float bits
	kindKernel                // numeric computed key: chunk kernel, evaluator on declined blocks
	kindEval                  // anything else: per-row evaluator
)

// keySrc is one group-by column's key source.
type keySrc struct {
	kind keyKind
	col  int         // kindDict, kindFloat: the column
	dict engine.Dict // kindDict: the version's code ↔ string table
	node expr.Expr   // kindKernel, kindEval (kernel and evaluator built per scanner)
}

type argKind int

const (
	argConst1 argKind = iota // count(*): every row contributes 1
	argFloat                 // numeric column: its float chunks
	argDict                  // count(DISTINCT string column): dictionary codes
	argEval                  // anything else: per-row evaluator
)

// argSrc is one aggregate's per-row argument source: what the scan, a
// later Advance's suffix scan and the scorer's argument view (growView)
// all feed the state, so a DISTINCT set has one identity domain for life.
type argSrc struct {
	kind argKind
	col  int       // argFloat, argDict
	node expr.Expr // argEval (evaluator built per scanner)
}

// argSource picks call's argument source. A numeric column is its floats.
// count(DISTINCT s) over a bare string column reads identity only, so the
// family's dictionary codes — append-only, the same in every version of
// the table — stand in for the strings. Everything else is evaluated per
// row and boxed: agg.Add takes it (strings keep string identity).
func argSource(schema engine.Schema, call *sqlparse.AggCall) argSrc {
	col, isCol := call.Arg.(*expr.Col)
	switch {
	case call.Arg == nil:
		return argSrc{kind: argConst1}
	case isCol && schema[col.Index].Type.IsNumeric():
		return argSrc{kind: argFloat, col: col.Index}
	case isCol && schema[col.Index].Type == engine.TString && call.Distinct && call.Name == "count":
		return argSrc{kind: argDict, col: col.Index}
	}
	return argSrc{kind: argEval, node: call.Arg}
}

// vectorPlan is the analyzed statement: everything the scanners share
// read-only (strCodes excepted, which strMu guards).
type vectorPlan struct {
	ctx    context.Context
	src    *engine.Table
	protos []agg.Func
	keys   []keySrc
	args   []argSrc
	// floatCols marks, by column index, every numeric column a key, a key
	// kernel or an argument reads; each scanner opens one chunk reader per
	// marked column.
	floatCols  []bool
	keyKernels int            // keys of kindKernel
	filter     *bitset.Bitset // nil: no WHERE
	fstats     filterStats
	denseSize  int // >0: single string group column, dense slot table
	// maskedAgg (PlanInfo.MaskedAgg): a global aggregate under a filter
	// whose arguments are all count(*) or numeric columns.
	maskedAgg bool
	// split marks the float sums (sum, avg, var, stddev): Merge
	// reassociates their additions, so a group keeps their partial of the
	// last, incomplete fold block apart (Group.tail) for Advance to resume
	// from. Every other state's Merge is exact under any grouping, which
	// agg's contract test (FuzzAggContract) holds on every input.
	split []bool
	// strCodes interns the strings evaluated group keys yield (GROUP BY
	// lower(s)): plan-wide, so every block maps equal strings to one slot
	// and block partials fold on it.
	strMu    sync.Mutex
	strCodes map[string]uint64
}

// valueSlot is the key slot of an evaluated group key value.
func (p *vectorPlan) valueSlot(v engine.Value) uint64 {
	switch {
	case v.IsNull():
		return nullSlot
	case v.T != engine.TString:
		return canonSlot(v.Float())
	}
	p.strMu.Lock()
	defer p.strMu.Unlock()
	slot, ok := p.strCodes[v.S]
	if !ok {
		if p.strCodes == nil {
			p.strCodes = make(map[string]uint64)
		}
		slot = strSlotBase + uint64(len(p.strCodes))
		p.strCodes[v.S] = slot
	}
	return slot
}

// planVector analyzes a grouped statement for the scan. filterFrom is
// the first row the caller will consume from the WHERE mask: fresh runs
// pass 0, Advance passes the old row count — the suffix is then the
// filter's universe, so residual conjuncts touch nothing before it.
func planVector(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt, aggItems []int, protos []agg.Func, filterFrom int) (*vectorPlan, error) {
	p := &vectorPlan{ctx: ctx, src: src, protos: protos}
	schema := src.Schema()
	p.floatCols = make([]bool, len(schema))

	p.keys = make([]keySrc, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		p.keys[i] = keySrc{kind: kindEval, node: g}
		if col, ok := g.(*expr.Col); ok {
			if schema[col.Index].Type == engine.TString {
				p.keys[i] = keySrc{kind: kindDict, col: col.Index, dict: src.Dict(col.Index)}
				if len(stmt.GroupBy) == 1 {
					p.denseSize = p.keys[i].dict.NumValues() + 1
				}
			} else { // every column is a string or numeric
				p.keys[i] = keySrc{kind: kindFloat, col: col.Index}
				p.floatCols[col.Index] = true
			}
		} else if kern, ok := expr.CompileFloat(g, schema); ok {
			p.keys[i].kind = kindKernel
			p.keyKernels++
			for _, col := range kern.Cols {
				p.floatCols[col] = true
			}
		}
	}

	p.args = make([]argSrc, len(aggItems))
	for ai, item := range aggItems {
		if p.args[ai] = argSource(schema, stmt.Items[item].Agg); p.args[ai].kind == argFloat {
			p.floatCols[p.args[ai].col] = true
		}
	}

	var universe *bitset.Bitset // nil: every row
	if filterFrom > 0 && stmt.Where != nil {
		universe = bitset.New(src.NumRows())
		universe.FillFrom(filterFrom)
	}
	var err error
	if p.filter, p.fstats, err = buildFilter(ctx, src, stmt.Where, universe); err != nil {
		return nil, err
	}

	p.maskedAgg = len(p.keys) == 0 && p.filter != nil && len(p.args) > 0 &&
		!slices.ContainsFunc(p.args, func(a argSrc) bool { return a.kind == argEval || a.kind == argDict })
	p.split = make([]bool, len(protos))
	for ai, proto := range protos { // a DISTINCT state's name is "sum distinct"
		p.split[ai] = slices.Contains([]string{"sum", "avg", "var", "var_pop", "stddev", "stddev_pop"}, proto.Name())
	}
	return p, nil
}

// vGroup is one block's (or the folded) group with its key slots.
type vGroup struct {
	g     *Group
	slots []uint64 // one per group-by column
}

// fresh returns an empty state of each prototype's kind.
func fresh(protos []agg.Func) []agg.Func {
	out := make([]agg.Func, len(protos))
	for i, proto := range protos {
		out[i] = proto.Clone()
	}
	return out
}

// groupIndex is a list of groups in first-appearance order with the
// lookup structure that finds a group by its key slots: nothing for a
// global aggregate, a dense code table for a single string column, a
// uint64 map for any other single key, and a map keyed by the slots'
// bytes for two or more.
type groupIndex struct {
	groups []*vGroup
	dense  []int32          // code+1 → group index+1
	h1     map[uint64]int32 // the one slot → group index
	hN     map[string]int32 // 8 bytes per slot → group index
	wide   []byte           // hN key scratch
}

func newGroupIndex(p *vectorPlan) groupIndex {
	switch {
	case p.denseSize > 0:
		return groupIndex{dense: make([]int32, p.denseSize)}
	case len(p.keys) == 1:
		return groupIndex{h1: make(map[uint64]int32)}
	case len(p.keys) > 1:
		return groupIndex{hN: make(map[string]int32)}
	}
	return groupIndex{}
}

// index returns the position in groups of the group keyed by slots and
// whether it exists yet; a new key is registered at len(groups), where
// the caller must append its group before the next call.
func (gx *groupIndex) index(slots []uint64) (int, bool) {
	next := len(gx.groups)
	switch {
	case len(slots) == 0:
		return 0, next > 0
	case gx.dense != nil:
		if gi := gx.dense[slots[0]]; gi != 0 {
			return int(gi) - 1, true
		}
		gx.dense[slots[0]] = int32(next) + 1
	case len(slots) == 1:
		if gi, ok := gx.h1[slots[0]]; ok {
			return int(gi), true
		}
		gx.h1[slots[0]] = int32(next)
	default:
		gx.wide = gx.wide[:0]
		for _, s := range slots {
			gx.wide = binary.LittleEndian.AppendUint64(gx.wide, s)
		}
		if gi, ok := gx.hN[string(gx.wide)]; ok {
			return int(gi), true
		}
		gx.hN[string(gx.wide)] = int32(next)
	}
	return next, false
}

// keyScan is one scanner's state for one group-by column.
type keyScan struct {
	dc    *engine.ColReader // kindDict
	kern  *expr.FloatKernel // kindKernel, with its Eval arguments below
	kvals [][]float64
	knull [][]uint64
	// eval is the boxed evaluator of a kindKernel or kindEval key: every
	// selected row of a string-valued key or a declined block.
	eval  evaluator
	slots []uint64 // the current block's key slot per selected row
}

// scanner is one worker's scan state. Its readers, evaluators, kernels
// and scratch serve every fold block the worker takes; its group index
// and groups — the block's partial states — start empty each block.
type scanner struct {
	groupIndex
	plan     *vectorPlan
	lo       int // the current block's first row
	keys     []keyScan
	argEvals []evaluator         // argEval arguments
	argDicts []*engine.ColReader // argDict arguments

	// Column readers pin one chunk at a time, so out-of-core reads fault
	// per segment: fr by column (plan.floatCols), keys[i].dc, argDicts, and
	// rr, which boxes single cells for the evaluators off the same typed
	// chunks.
	fr []*engine.ColReader
	rr *engine.RowReader
	// cursors lists every column reader above, for close.
	cursors []*engine.ColReader

	// Block scratch: the filter words, the selection vector (chunk offsets
	// of the passing rows) and its runs — grown to the densest block seen,
	// so a selective scan stays small.
	mask []uint64
	sel  []int32
	runs []run
	// slots is the current run's key. A whole cache line: the tiny
	// allocator would pack two scanners' buffers into one, and the
	// workers would bounce it.
	slots []uint64
	// lineage, in a lineage pass, is each group's row ids in scan order; a
	// run appends its row ids to its group's instead of folding.
	lineage [][]int
}

func newScanner(p *vectorPlan) *scanner {
	ss := &scanner{plan: p} // run builds the groupIndex, once per call
	ss.rr = p.src.NewRowReader()
	open := func(col int) *engine.ColReader {
		ss.cursors = append(ss.cursors, p.src.NewColReader(col))
		return ss.cursors[len(ss.cursors)-1]
	}
	ss.fr = make([]*engine.ColReader, len(p.floatCols))
	for col, read := range p.floatCols {
		if read {
			ss.fr[col] = open(col)
		}
	}
	schema := p.src.Schema()
	ss.mask = make([]uint64, blockRows/64)
	ss.slots = make([]uint64, len(p.keys), max(len(p.keys), 8))
	ss.keys = make([]keyScan, len(p.keys))
	for i, k := range p.keys {
		ks := &ss.keys[i]
		switch k.kind {
		case kindDict:
			ks.dc = open(k.col)
		case kindKernel:
			ks.kern, _ = expr.CompileFloat(k.node, schema)
			ks.kvals, ks.knull = make([][]float64, len(ks.kern.Cols)), make([][]uint64, len(ks.kern.Cols))
			fallthrough
		case kindEval:
			ks.eval = rowEval(k.node, ss.rr, schema)
		}
	}
	ss.argEvals = make([]evaluator, len(p.args))
	ss.argDicts = make([]*engine.ColReader, len(p.args))
	for ai, a := range p.args {
		switch a.kind {
		case argEval:
			ss.argEvals[ai] = rowEval(a.node, ss.rr, schema)
		case argDict:
			ss.argDicts[ai] = open(a.col)
		}
	}
	return ss
}

// close releases every pinned chunk and returns the readers' pin counts.
// It is idempotent.
func (ss *scanner) close() (faulted, resident int) {
	ss.rr.Close()
	faulted, resident = ss.rr.Counters()
	for _, c := range ss.cursors {
		c.Close()
		f, res := c.Counters()
		faulted, resident = faulted+f, resident+res
	}
	return faulted, resident
}

// errKernelSlot is the internal error of a key kernel whose slot is not
// the slot of the value the interpreter computes on the same row —
// unreachable unless CompileFloat's parity contract is broken.
var errKernelSlot = errors.New("exec: internal: key kernel disagrees with the evaluator")

// boxKeys boxes the Key of each group in born, in row order, as what the
// reference evaluates GROUP BY to on its FirstRow: a code's string, a
// numeric column's actual cell (its slot folded -0.0, NaN payloads and
// ints past 2^53), a computed key's value from the boxed evaluator —
// never a kernel's float. It reads through a row reader of its own and
// returns that reader's pin counts.
func (p *vectorPlan) boxKeys(born []*vGroup) (faulted, resident int, err error) {
	rr := p.src.NewRowReader()
	defer rr.Close()
	evals := make([]evaluator, len(p.keys))
	for i, k := range p.keys {
		if k.kind == kindKernel || k.kind == kindEval {
			evals[i] = rowEval(k.node, rr, p.src.Schema())
		}
	}
	for _, vg := range born {
		r, key := vg.g.FirstRow, make([]engine.Value, len(vg.slots))
		for i, k := range p.keys {
			switch {
			case k.kind == kindFloat:
				key[i] = rr.Value(r, k.col)
			case k.kind != kindDict:
				v, err := evals[i](r)
				if err == nil && p.valueSlot(v) != vg.slots[i] {
					err = errKernelSlot
				}
				if err != nil {
					return 0, 0, err
				}
				key[i] = v
			case vg.slots[i] != 0: // kindDict; slot 0 is NULL
				key[i] = engine.NewString(k.dict.Value(int32(vg.slots[i] - 1)))
			}
		}
		vg.g.Key = key
	}
	faulted, resident = rr.Counters()
	return faulted, resident, nil
}

// run folds rows [lo, hi) — one fold block, or an Advance's part of
// one — into fresh partial states after seeds (the states an Advance
// resumes the block from), and returns the block's groups in
// first-appearance order. It polls the plan's ctx at least once per
// ctxCheckRows rows, so a cancelled query stops every worker promptly.
func (ss *scanner) run(lo, hi int, seeds []*vGroup) (groups []*vGroup, err error) {
	// A chunk fault can fail (corrupt or vanished segment file); the
	// loader surfaces that as a SegmentLoadError panic. Recover it into
	// err here rather than letting par.Do re-raise it: runVector reports
	// the lowest block's error, the one a sequential scan would hit.
	defer engine.CatchSegmentLoad(&err)
	p := ss.plan
	ss.groupIndex = newGroupIndex(p)
	for _, vg := range seeds {
		ss.index(vg.slots)
		ss.groups = append(ss.groups, vg)
	}
	var words []uint64
	if ss.lo = lo; p.filter != nil {
		words = p.filter.Words()
	}
	segRows := p.src.SegRows()
	unpolled := ctxCheckRows
	for at := lo &^ 63; at < hi; {
		end := min(at+blockRows, at-at%segRows+segRows, hi)
		if unpolled += end - at; unpolled > ctxCheckRows {
			if err := p.ctx.Err(); err != nil {
				return nil, ctxErr(err)
			}
			unpolled = end - at
		}
		if err := ss.block(words, at, end); err != nil {
			return nil, err
		}
		at = end
	}
	return ss.groups, nil
}

// block folds the passing rows of [lo, hi) — rows of one segment, lo
// word-aligned — into the fold block's partial states: filter words →
// selection vector → one slot vector per key → runs, each with its group
// → arguments, one fold per run (a lineage pass appends the run's row ids
// instead). A block whose mask is empty pins nothing, which keeps
// zone-map pruning free on out-of-core tables.
//
// Column-at-a-time evaluation must still report the reference's error:
// the lowest erroring row's, and within a row a key's before an
// argument's. An evaluator error therefore truncates the block to the
// rows before it, so a later column can only replace it with the error
// of a lower row.
func (ss *scanner) block(words []uint64, lo, hi int) error {
	p := ss.plan
	mask := ss.mask[:(hi-lo+63)/64]
	if words != nil {
		copy(mask, words[lo/64:])
	} else {
		for j := range mask {
			mask[j] = ^uint64(0)
		}
	}
	if lo < ss.lo {
		mask[0] &= ^uint64(0) << uint(ss.lo-lo)
	}
	if r := hi % 64; r != 0 {
		mask[len(mask)-1] &= 1<<uint(r) - 1
	}
	segRows := p.src.SegRows()
	k, base := lo/segRows, lo-lo%segRows
	sel := ss.sel[:0]
	for j, w := range mask {
		for o := int32(lo - base + j*64); w != 0; w &= w - 1 {
			sel = append(sel, o+int32(bits.TrailingZeros64(w)))
		}
	}
	n := len(sel)
	if ss.sel = sel; n == 0 {
		return nil
	}
	var firstErr error

	for i := range p.keys {
		ks := &ss.keys[i]
		ks.slots = scratch(ks.slots, n)
		switch key := &p.keys[i]; key.kind {
		case kindDict:
			codes := ks.dc.Codes(k)
			for j, o := range sel[:n] {
				ks.slots[j] = uint64(codes[o] + 1) // NULL code -1 → slot 0
			}
		case kindFloat:
			vals, null := ss.fr[key.col].Floats(k)
			floatSlots(ks.slots[:n], vals, null, sel[:n])
		case kindKernel:
			for c, col := range ks.kern.Cols {
				ks.kvals[c], ks.knull[c] = ss.fr[col].Floats(k)
			}
			if out, null, ok := ks.kern.Eval(ks.kvals, ks.knull, sel[:n]); ok {
				floatSlots(ks.slots[:n], out, null, nil)
				continue
			}
			fallthrough // a declined block evaluates per row
		default:
			for j, o := range sel[:n] {
				v, err := ks.eval(base + int(o))
				if err != nil {
					n, firstErr = j, err
					break
				}
				ks.slots[j] = p.valueSlot(v)
			}
		}
	}

	// A run is consecutive selected rows with equal key slots — time
	// ordered data groups in runs, and a global aggregate's block is one —
	// and takes one group lookup, one row-count bump and one fold call per
	// numeric argument; in a lineage pass, one append of its row ids.
	runs := ss.runs[:0]
	for j := 0; j < n; {
		end := ss.runEnd(j, n)
		for i := range ss.keys {
			ss.slots[i] = ss.keys[i].slots[j]
		}
		gi, ok := ss.index(ss.slots)
		switch {
		case ss.lineage != nil: // the lineage pass meets groups in the scan's order
			if !ok {
				ss.groups = append(ss.groups, nil)
			}
			for _, o := range sel[j:end] {
				ss.lineage[gi] = append(ss.lineage[gi], base+int(o))
			}
		case !ok: // a new group: its Key is boxed once per result (boxKeys)
			g := &Group{Aggs: fresh(p.protos), FirstRow: base + int(sel[j]), Rows: end - j}
			ss.groups = append(ss.groups, &vGroup{g: g, slots: slices.Clone(ss.slots)})
		default:
			ss.groups[gi].g.Rows += end - j
		}
		runs = append(runs, run{end: int32(end), gi: int32(gi)})
		j = end
	}
	if ss.runs = runs; ss.lineage != nil {
		return firstErr
	}

	for ai := range p.args {
		a := &p.args[ai]
		var vals []float64
		var null []uint64
		var codes []int32
		switch a.kind {
		case argFloat:
			vals, null = ss.fr[a.col].Floats(k)
		case argDict:
			codes = ss.argDicts[ai].Codes(k)
		}
		j := 0
		for _, rn := range runs {
			end := min(int(rn.end), n) // an argument error cut the block short
			if j >= end {
				break
			}
			st := ss.groups[rn.gi].g.Aggs[ai]
			switch a.kind {
			case argConst1:
				for range end - j {
					st.AddFloat(1)
				}
			case argFloat:
				st.AddFloats(vals, null, sel[j:end])
			case argDict:
				for _, o := range sel[j:end] {
					if c := codes[o]; c >= 0 { // NULL code -1
						st.AddFloat(float64(c))
					}
				}
			default: // argEval
				for i, o := range sel[j:end] {
					v, err := ss.argEvals[ai](base + int(o))
					if err != nil {
						n, firstErr = j+i, err
						break
					}
					agg.Add(st, v)
				}
			}
			j = end
		}
	}
	return firstErr
}

// run is a block's selected rows up to end (exclusive, a selection
// index) since the previous run, all of the group at groups[gi].
type run struct{ end, gi int32 }

// runEnd returns the end of the run that starts at selected row j: the
// first row after it whose key slots differ, or n.
func (ss *scanner) runEnd(j, n int) int {
	if len(ss.keys) == 0 {
		return n
	}
	first := ss.keys[0].slots[:n]
	end := j + 1
	for ; end < n && first[end] == first[j]; end++ {
		for i := 1; i < len(ss.keys); i++ {
			if s := ss.keys[i].slots; s[end] != s[j] {
				return end
			}
		}
	}
	return end
}

// scratch returns buf resized to n ≤ blockRows, at least doubling it when
// it must grow; the contents are not kept.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, min(blockRows, max(n, 2*cap(buf))))
	}
	return buf[:n]
}

// floatSlots fills slots[j] with the key slot of the j'th cell sel picks
// out of a float chunk (values + NULL words); a nil sel picks cell j
// itself — a kernel's output is dense.
func floatSlots(slots []uint64, vals []float64, null []uint64, sel []int32) {
	for j := range slots {
		o := j
		if sel != nil {
			o = int(sel[j])
		}
		if null[o>>6]&(1<<(uint(o)&63)) != 0 {
			slots[j] = nullSlot
		} else {
			slots[j] = canonSlot(vals[o])
		}
	}
}

// countSkips counts the out-of-core segments wholly inside [lo, hi) whose
// filter words are all zero — typically because zone-map pruning zeroed
// their mask chunks. No block of theirs pins anything, so they are served
// without disk.
func (p *vectorPlan) countSkips(lo, hi int) int {
	if p.filter == nil {
		return 0
	}
	words, segRows, skipped := p.filter.Words(), p.src.SegRows(), 0
	for k := (lo + segRows - 1) / segRows; (k+1)*segRows <= hi; k++ {
		if p.src.SegmentFaultable(k) && !bitset.AnyWords(words[k*segRows/64:(k+1)*segRows/64]) {
			skipped++
		}
	}
	return skipped
}

// errMerge is the internal error of a Merge refusal between states cloned
// from one prototype — unreachable unless an aggregate's Merge is broken,
// and loud rather than silently re-run.
var errMerge = errors.New("exec: internal: states of one prototype did not merge")

// merged returns a new state holding a ⊕ b (onto a fresh Clone, Merge is
// a copy).
func merged(a, b agg.Func) (agg.Func, error) {
	out := a.Clone()
	if !out.Merge(a) || !out.Merge(b) {
		return nil, errMerge
	}
	return out, nil
}

// fold folds part, one block's partial states of g, after what g holds:
// the last, incomplete block's float sums become g's tail, everything
// else folds into done. shared means done is still a prior result's,
// which its readers hold, so this fold copies it; after a complete
// block's fold every state in done is g's own, and the last block's fold
// is g's last.
func (p *vectorPlan) fold(g *Group, part []agg.Func, last, shared bool) (err error) {
	last = last && slices.Contains(p.split, true)
	switch {
	case last && !slices.Contains(p.split, false):
		g.tail = part
		return nil
	case !last && g.done == nil:
		g.done = part
		return nil
	case last:
		g.tail = make([]agg.Func, len(part))
	}
	if g.done == nil {
		g.done = make([]agg.Func, len(part))
	} else if shared {
		g.done = slices.Clone(g.done)
	}
	for i, st := range part {
		switch d := g.done[i]; {
		case last && p.split[i]:
			g.tail[i] = st
		case d == nil:
			g.done[i] = st
		case shared:
			g.done[i], err = merged(d, st)
		case !d.Merge(st):
			err = errMerge
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// publish sets g.Aggs to done ⊕ tail: done itself when there is no tail,
// and otherwise each float sum's done ⊕ tail on a fresh state (O(1))
// beside the states only one of them holds.
func publish(g *Group) (err error) {
	if g.Aggs = g.done; g.tail == nil {
		return nil
	}
	if g.Aggs = g.tail; g.done == nil {
		return nil
	}
	g.Aggs = slices.Clone(g.tail)
	for i, d := range g.done {
		switch t := g.Aggs[i]; {
		case t == nil:
			g.Aggs[i] = d
		case d != nil:
			g.Aggs[i], err = merged(d, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// foldBlocks left-folds the block partials, in block order, onto carried
// (a prior result's groups) and publishes each group's Aggs and Rows;
// parts[tail] is the incomplete last block (tail < 0: none). Carried
// groups first, then each block's unseen groups in its own
// first-appearance order, is the sequential scan's group order.
func foldBlocks(p *vectorPlan, carried []*vGroup, parts [][]*vGroup, tail int) ([]*vGroup, error) {
	total := newGroupIndex(p)
	for _, vg := range carried {
		total.index(vg.slots)
		total.groups = append(total.groups, vg)
	}
	type later struct {
		gi, block int
		part      *vGroup
	}
	var folds []later // a block's part of a group an earlier block, or the prior, opened
	for i, part := range parts {
		for _, vg := range part {
			if gi, ok := total.index(vg.slots); ok {
				total.groups[gi].g.Rows += vg.g.Rows
				folds = append(folds, later{gi, i, vg})
				continue
			}
			total.groups = append(total.groups, vg)
			if err := p.fold(vg.g, vg.g.Aggs, i == tail, false); err != nil {
				return nil, err
			}
		}
	}
	copied := make([]bool, len(carried)) // the carried group's done is a copy already
	for _, f := range folds {
		tgt, part := total.groups[f.gi], f.part.g
		shared := f.gi < len(carried) && !copied[f.gi]
		if shared {
			copied[f.gi] = true
		}
		if err := p.fold(tgt.g, part.Aggs, f.block == tail, shared); err != nil {
			return nil, err
		}
	}
	for _, vg := range total.groups {
		if err := publish(vg.g); err != nil {
			return nil, err
		}
	}
	return total.groups, nil
}

// runVector executes a grouped statement over src: plan, scan the fold
// blocks from row from on, fold, materialize. prior lists the groups of
// a result over src's rows below from, in scan order (none on a fresh
// run, where from is 0): their done carries as it is, and the block from
// falls inside, if any, resumes from clones of their tails. So a fresh
// run is an Advance from the empty result, and Advance's result is, bit
// for bit, a fresh run's.
func runVector(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt, aggArgs []expr.Expr, aggItems []int, protos []agg.Func, prior []*Group, from int) (*Result, error) {
	span := obs.Start(ctx, obs.Filter) // a provenance build's plan is its lineage stage's
	p, err := planVector(ctx, src, stmt, aggItems, protos, from)
	span.End()
	if err != nil {
		return nil, err
	}
	n, b, nk := src.NumRows(), min(foldRows, src.SegRows()), len(p.keys)
	carried, err := p.seed(prior)
	if err != nil {
		return nil, err
	}
	var seeds []*vGroup
	for gi, g := range prior {
		// The copy the fold folds onto shares Key and done, which the fold
		// copies before it first merges into it. The tail is not carried:
		// the block it covers resumes from clones of it.
		carried[gi].g = &Group{Key: g.Key, Rows: g.Rows, FirstRow: g.FirstRow, done: g.done}
		if g.tail == nil {
			continue
		}
		// The prior's last block is incomplete (from is inside it): its
		// float sums resume from their tail, the other states start fresh,
		// their rows there being in done.
		aggs := fresh(protos)
		for i, t := range g.tail {
			if t != nil && !aggs[i].Merge(t) {
				return nil, errMerge
			}
		}
		seeds = append(seeds, &vGroup{g: &Group{Aggs: aggs, FirstRow: g.FirstRow}, slots: carried[gi].slots})
	}

	first := from / b
	parts := make([][]*vGroup, (n+b-1)/b-first)
	errs := make([]error, len(parts))
	// par.Do hands out work items: a block, or all of an out-of-core
	// segment's blocks, so that a worker pins each chunk it reads once.
	var items []int // each item's first block; the next item's ends it
	segBlocks := src.SegRows() / b
	for i := range len(parts) {
		if k := first + i; i == 0 || k%segBlocks == 0 || !src.SegmentFaultable(k/segBlocks) {
			items = append(items, i)
		}
	}
	items = append(items, len(parts))
	scanners := make([]*scanner, par.Width(len(items)-1))
	closeAll := func() (faulted, resident int) {
		for _, ss := range scanners {
			if ss != nil {
				f, r := ss.close()
				faulted, resident = faulted+f, resident+r
			}
		}
		return faulted, resident
	}
	defer closeAll() // error and panic exits release pins too
	span = obs.Start(ctx, obs.Scan)
	par.Do(len(items)-1, func(w, it int) {
		if scanners[w] == nil {
			scanners[w] = newScanner(p)
		}
		for i := items[it]; i < items[it+1]; i++ {
			var s []*vGroup
			if i == 0 {
				s = seeds
			}
			k := first + i
			parts[i], errs[i] = scanners[w].run(max(k*b, from), min(k*b+b, n), s)
		}
	})
	faulted, resident := closeAll()
	span.End()
	// The lowest block's error is the earliest erroring row's — the error
	// the sequential scan would have hit.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	tail := -1
	if n%b != 0 {
		tail = len(parts) - 1
	}
	span = obs.Start(ctx, obs.Merge)
	folded, err := foldBlocks(p, carried, parts, tail)
	if err == nil && nk > 0 && len(folded) > len(carried) {
		var f, r int
		f, r, err = p.boxKeys(folded[len(carried):])
		faulted, resident = faulted+f, resident+r
	}
	span.End()
	if err != nil {
		return nil, err
	}
	groups := make([]*Group, len(folded))
	for gi, vg := range folded {
		groups[gi] = vg.g
	}
	plan := p.fstats.plan()
	plan.Vectorized, plan.Shards, plan.MaskedAgg, plan.KeyKernels = true, len(parts), p.maskedAgg, p.keyKernels
	plan.SegsSkipped = p.countSkips(from, n)
	plan.ChunksFaulted, plan.ChunksResident = faulted, resident
	res := &Result{
		Stmt: stmt, Source: src, Groups: groups,
		aggArgs: aggArgs, aggItems: aggItems, Plan: plan,
	}
	defer obs.Start(ctx, obs.Materialize).End()
	if err := res.materialize(); err != nil {
		return nil, err
	}
	return res, nil
}

// lineage appends to lineage — each group's row ids, by group in scan
// order, seeded's groups first — the ids of the rows from on that pass
// the filter: stages 1–4 on one scanner, with no fold.
func (p *vectorPlan) lineage(lineage [][]int, seeded []*vGroup, from int) error {
	ss := newScanner(p)
	defer ss.close() // a panic's exit releases pins too
	ss.lineage = lineage
	_, err := ss.run(from, p.src.NumRows(), seeded)
	return err
}
