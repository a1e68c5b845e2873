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
	"repro/internal/par"
	"repro/internal/sqlparse"
)

// This file is the grouped scan — the one pipeline every grouped
// statement runs on:
//
//  1. WHERE evaluates once into a bitmap (filter.go),
//  2. the row space splits into shards that par.Do spreads over
//     GOMAXPROCS workers, and each shard walks its range
//     block-at-a-time (a block = its slice of one segment, at most
//     blockRows rows), the block's passing rows as a selection vector,
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
//     one lineage growth and, per numeric argument, one AddFloats call
//     over the chunk slices (Add per row only for what a per-row
//     evaluator yields), and
//  5. the shards' private group states Merge in shard order — which
//     preserves the sequential scan's first-appearance group order,
//     ascending lineage, and FirstRow.
//
// RunReference (exec.go) is the boxed oracle the randomized parity
// tests pin this pipeline to, bit for bit.

// Options tunes an execution. The zero value is what every caller
// outside the tests passes.
type Options struct {
	// Shards forces the number of scan partitions (0 = automatic:
	// par.Width, capped so each shard keeps at least a few thousand
	// rows). Tests pin it on tables the automatic choice would not
	// split.
	Shards int
}

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
	// Shards is the number of scan partitions the pipeline used (0 when
	// it did not run).
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
	// FilterOrder is the evaluation order as source-position indexes
	// into the AND chain. An entry of 2 first means the third conjunct in
	// source order was estimated most selective and evaluated first.
	FilterOrder []int
	// FilterShortCircuited counts trailing conjuncts never evaluated
	// because the running mask emptied first.
	FilterShortCircuited int
	// ResidualConjuncts counts WHERE conjuncts that did not lower and
	// were evaluated per row, only on the bits the conjuncts before them
	// had not ruled out.
	ResidualConjuncts int
	// ResidualRows is the total number of per-row residual evaluations.
	ResidualRows int
	// FilterFallback is the canonical reason every conjunct was residual
	// ("" when something lowered or there was no WHERE): "filter:
	// non-lowerable predicate shape" or "filter: predicate index geometry
	// mismatch".
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
	// minShardRows keeps shards coarse enough that per-shard setup and
	// merge never dominate.
	minShardRows = 4096
	// blockRows bounds a scan block: small enough that a block's scratch
	// (selection, slots, kernel buffers) stays in L1/L2 and a selective
	// shard allocates little, large enough to amortize per-block setup.
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
	node expr.Expr   // kindKernel, kindEval (kernel and evaluator built per shard)
}

type argKind int

const (
	argConst1 argKind = iota // count(*): every row contributes 1
	argFloat                 // numeric column: its float chunks
	argDict                  // count(DISTINCT string column): dictionary codes
	argEval                  // anything else: per-row evaluator
)

// argSrc is one aggregate's per-row argument source: what the scan, a
// later Advance's suffix scan and the scorer's argument view (fillArgView)
// all feed the state, so a DISTINCT set has one identity domain for life.
type argSrc struct {
	kind argKind
	col  int       // argFloat, argDict
	node expr.Expr // argEval (evaluator built per shard)
}

// argSource picks call's argument source. A numeric column is its floats.
// count(DISTINCT s) over a bare string column reads identity only, so the
// family's dictionary codes — append-only, the same in every version of
// the table — stand in for the strings. Everything else is evaluated per
// row and boxed: Add takes it (strings keep string identity).
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

// vectorPlan is the analyzed statement: everything the shard workers
// share read-only (strCodes excepted, which strMu guards).
type vectorPlan struct {
	ctx    context.Context
	src    *engine.Table
	stmt   *sqlparse.SelectStmt
	protos []agg.Func
	keys   []keySrc
	args   []argSrc
	// floatCols marks, by column index, every numeric column a key, a key
	// kernel or an argument reads; each shard opens one chunk reader per
	// marked column.
	floatCols  []bool
	keyKernels int            // keys of kindKernel
	filter     *bitset.Bitset // nil: no WHERE
	fstats     filterStats
	denseSize  int // >0: single string group column, dense slot table
	// maskedAgg (PlanInfo.MaskedAgg): a global aggregate under a filter
	// whose arguments are all count(*) or numeric columns.
	maskedAgg bool
	// strCodes interns the strings evaluated group keys yield (GROUP BY
	// lower(s)): plan-wide, so every shard maps equal strings to one slot
	// and shard states merge on it.
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
	p := &vectorPlan{ctx: ctx, src: src, stmt: stmt, protos: protos}
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
	return p, nil
}

// planInfo is the PlanInfo of a scan of this plan over shards partitions.
func (p *vectorPlan) planInfo(shards int) PlanInfo {
	plan := p.fstats.plan()
	plan.Vectorized, plan.Shards, plan.MaskedAgg, plan.KeyKernels = true, shards, p.maskedAgg, p.keyKernels
	return plan
}

// vGroup is one shard-local (or merged) group with its key slots.
type vGroup struct {
	g     *Group
	slots []uint64 // one per group-by column
	gain  int      // mergeShards: lineage rows later shards still add
}

func (p *vectorPlan) newGroup(slots []uint64, r int) *vGroup {
	g := &Group{Aggs: make([]agg.Func, len(p.protos)), FirstRow: r}
	for i, proto := range p.protos {
		g.Aggs[i] = proto.Clone()
	}
	return &vGroup{g: g, slots: append([]uint64(nil), slots...)}
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

// keyScan is one shard's state for one group-by column.
type keyScan struct {
	dc    *engine.ColReader // kindDict
	kern  *expr.FloatKernel // kindKernel, with its Eval arguments below
	kvals [][]float64
	knull [][]uint64
	// eval is the boxed evaluator of a kindKernel or kindEval key: every
	// selected row of a string-valued key or a declined block, and the
	// creating row of each group (Group.Key is the reference's value).
	eval  evaluator
	slots []uint64 // the current block's key slot per selected row
}

// shardScan is one worker's private accumulation state over [lo, hi).
type shardScan struct {
	groupIndex
	plan     *vectorPlan
	lo, hi   int
	keys     []keyScan
	argEvals []evaluator         // argEval arguments
	argDicts []*engine.ColReader // argDict arguments
	err      error

	// Column readers pin one chunk at a time, so out-of-core reads fault
	// per segment: fr by column (plan.floatCols), keys[i].dc, argDicts, and
	// rr, which boxes single cells — for evaluators and a new group's
	// column keys — off the same typed chunks.
	fr []*engine.ColReader
	rr *engine.RowReader
	// cursors lists every column reader above, for closeCursors.
	cursors []*engine.ColReader

	// Block scratch: the filter words, the selection vector (chunk offsets
	// of the passing rows) and its runs — grown to the densest block seen,
	// so a selective scan stays small.
	mask []uint64
	sel  []int32
	runs []run
	// slots is the current run's key. A whole cache line: the tiny
	// allocator would pack two shards' buffers into one, and the shard
	// goroutines would bounce it.
	slots []uint64
	// pending bounds the passing rows the shard has yet to scan; a global
	// aggregate sizes its one lineage from it.
	pending int

	segsSkipped    int // fully-pruned out-of-core segments never pinned
	chunksFaulted  int
	chunksResident int
}

func newShardScan(p *vectorPlan, lo, hi int) *shardScan {
	ss := &shardScan{groupIndex: newGroupIndex(p), plan: p, lo: lo, hi: hi}
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

// closeCursors releases every pinned chunk and folds the cursors' pin
// counters into the shard totals. Deferred from run() so error and
// cancellation exits release pins too.
func (ss *shardScan) closeCursors() {
	ss.rr.Close()
	faulted, resident := ss.rr.Counters()
	for _, c := range ss.cursors {
		c.Close()
		f, res := c.Counters()
		faulted, resident = faulted+f, resident+res
	}
	ss.chunksFaulted, ss.chunksResident = faulted, resident
}

// errKernelSlot is the internal error of a key kernel whose slot is not
// the slot of the value the interpreter computes on the same row —
// unreachable unless CompileFloat's parity contract is broken.
var errKernelSlot = errors.New("exec: internal: key kernel disagrees with the evaluator")

// group finds or creates the group keyed by slots and returns its
// position in groups; r is the creating row, which the shard has pinned.
// A new group's Key is boxed here, once, as what the reference evaluates
// GROUP BY to on that row: a code's string, a numeric column's actual
// cell (its slot folded -0.0, NaN payloads and ints past 2^53), a
// computed key's value from the boxed evaluator — never a kernel's float.
func (ss *shardScan) group(slots []uint64, r int) (int, error) {
	gi, ok := ss.index(slots)
	if ok {
		return gi, nil
	}
	vg := ss.plan.newGroup(slots, r)
	if len(slots) > 0 {
		vg.g.Key = make([]engine.Value, len(slots))
	}
	for i, k := range ss.plan.keys {
		switch {
		case k.kind == kindFloat:
			vg.g.Key[i] = ss.rr.Value(r, k.col)
		case k.kind != kindDict:
			v, err := ss.keys[i].eval(r)
			if err == nil && ss.plan.valueSlot(v) != slots[i] {
				err = errKernelSlot
			}
			if err != nil {
				return 0, err
			}
			vg.g.Key[i] = v
		case slots[i] != 0: // kindDict; slot 0 is NULL
			vg.g.Key[i] = engine.NewString(k.dict.Value(int32(slots[i] - 1)))
		}
	}
	ss.groups = append(ss.groups, vg)
	return gi, nil
}

// run scans the shard's row range block by block, polling the plan's ctx
// at least once per ctxCheckRows rows, so a cancelled query stops all shards
// promptly; the first shard to observe cancellation records the context
// error and runVector surfaces it. Advance's suffix scan rides the same
// loop (its lo need not be word-aligned; block clips the first word).
func (ss *shardScan) run() {
	p := ss.plan
	// A chunk fault can fail (corrupt or vanished segment file); the
	// loader surfaces that as a SegmentLoadError panic. Recover it into
	// ss.err here rather than letting par.Do re-raise it — runVector
	// reports the lowest-indexed shard's error, the one a sequential scan
	// would hit — and release any pins the cursors still hold on every
	// exit path, including that one.
	defer engine.CatchSegmentLoad(&ss.err)
	defer ss.closeCursors()
	var words []uint64
	ss.pending = ss.hi - ss.lo
	if p.filter != nil {
		words = p.filter.Words()
		ss.countSkips(words)
		ss.pending = bitset.CountWords(words[ss.lo/64 : (ss.hi+63)/64])
	}
	segRows := p.src.SegRows()
	unpolled := ctxCheckRows
	for lo := ss.lo &^ 63; lo < ss.hi && ss.err == nil; {
		hi := min(lo+blockRows, lo-lo%segRows+segRows, ss.hi)
		if unpolled += hi - lo; unpolled > ctxCheckRows {
			if err := p.ctx.Err(); err != nil {
				ss.err = ctxErr(err)
				return
			}
			unpolled = hi - lo
		}
		ss.err = ss.block(words, lo, hi)
		lo = hi
	}
}

// block folds the passing rows of [lo, hi) — rows of one segment, lo
// word-aligned — into the shard state: filter words → selection vector →
// one slot vector per key → runs, each with its group and lineage →
// arguments, one fold per run. A block whose mask is empty pins nothing,
// which keeps zone-map pruning free on out-of-core tables.
//
// Column-at-a-time evaluation must still report the reference's error:
// the lowest erroring row's, and within a row a key's before an
// argument's. An evaluator error therefore truncates the block to the
// rows before it, so a later column can only replace it with the error
// of a lower row.
func (ss *shardScan) block(words []uint64, lo, hi int) error {
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
	// and takes one group lookup, one lineage growth and one fold call per
	// numeric argument.
	runs := ss.runs[:0]
	for j := 0; j < n; {
		end := ss.runEnd(j, n)
		for i := range ss.keys {
			ss.slots[i] = ss.keys[i].slots[j]
		}
		gi, err := ss.group(ss.slots, base+int(sel[j]))
		if err != nil {
			return err
		}
		g, grow := ss.groups[gi].g, end-j
		if len(p.keys) == 0 {
			grow = ss.pending // the one group's whole lineage, once
		}
		at := len(g.Lineage)
		g.Lineage = slices.Grow(g.Lineage, grow)[:at+end-j]
		for i, o := range sel[j:end] {
			g.Lineage[at+i] = base + int(o)
		}
		runs = append(runs, run{end: int32(end), gi: int32(gi)})
		j = end
	}
	ss.runs = runs
	ss.pending -= len(sel)

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
					st.Add(v)
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
func (ss *shardScan) runEnd(j, n int) int {
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

// countSkips counts the out-of-core segments wholly inside this shard's
// range whose filter words are all zero — typically because zone-map
// pruning zeroed their mask chunks. No block of theirs pins anything, so
// they are served without disk. A segment straddling a shard boundary
// (sub-segment sharding on small tables) is counted by neither shard.
func (ss *shardScan) countSkips(words []uint64) {
	segRows := ss.plan.src.SegRows()
	for k := (ss.lo + segRows - 1) / segRows; (k+1)*segRows <= ss.hi; k++ {
		if ss.plan.src.SegmentFaultable(k) && !bitset.AnyWords(words[k*segRows/64:(k+1)*segRows/64]) {
			ss.segsSkipped++
		}
	}
}

// errShardMerge is the internal error of a Merge refusal between states
// cloned from one prototype — unreachable unless an aggregate's Merge is
// broken, and loud rather than silently re-run.
var errShardMerge = errors.New("exec: internal: shard states of one prototype did not merge")

// mergeShards combines per-shard group states in shard order. Because
// shard row ranges are ascending and contiguous, visiting shard 0's
// groups first (in their local first-appearance order), then each later
// shard's unseen groups, reproduces the sequential scan's group order
// exactly; concatenating lineage in shard order keeps it ascending.
func mergeShards(p *vectorPlan, states []*shardScan) ([]*vGroup, error) {
	if len(states) == 1 {
		return states[0].groups, nil
	}
	total := newGroupIndex(p)
	var later [][2]*vGroup // {the group an earlier shard opened, a later shard's part of it}
	for _, ss := range states {
		for _, vg := range ss.groups {
			gi, ok := total.index(vg.slots)
			if !ok {
				total.groups = append(total.groups, vg)
				continue
			}
			total.groups[gi].gain += len(vg.g.Lineage)
			later = append(later, [2]*vGroup{total.groups[gi], vg})
		}
	}
	// gain is what a merged lineage still has coming, so the first append
	// sizes it for all of them and the Grows after it find the room there.
	for _, pr := range later {
		tgt, part := pr[0], pr[1].g
		tgt.g.Lineage = append(slices.Grow(tgt.g.Lineage, tgt.gain), part.Lineage...)
		tgt.gain -= len(part.Lineage)
		for ai := range tgt.g.Aggs {
			if !tgt.g.Aggs[ai].Merge(part.Aggs[ai]) {
				return nil, errShardMerge
			}
		}
	}
	return total.groups, nil
}

// shardCount picks the scan partition count. An explicit Options.Shards
// is honored as given (capped at one bitset word — 64 rows — per
// shard, the alignment floor); the automatic choice additionally keeps
// every shard above minShardRows so setup and merge never dominate.
func shardCount(n int, opts Options) int {
	shards := opts.Shards
	if shards <= 0 {
		shards = par.Width((n + minShardRows - 1) / minShardRows)
	}
	return max(1, min(shards, (n+63)/64))
}

// shardRanges splits [0, n) into at most nshards contiguous,
// 64-row-aligned ranges balanced by *surviving* filter popcount rather
// than raw row count (a nil filter counts every row). A fixed
// whole-segment split serializes a scan whenever zone-map pruning
// zeroes all but one segment: every surviving row lands in one shard
// while the rest count zeros. Here skipped segments contribute nothing
// to the range math — they ride along inside whichever range surrounds
// them (always whole, so countSkips still sees them wholly inside one
// shard) — cuts land on segment boundaries while segments are small
// next to a shard's share, so a shard's filter words, column chunks and
// mask chunks straddle no other shard's, and a hot segment carrying
// more than one shard's share of survivors is subdivided on bitset-word
// boundaries, the finest granularity at which shard ranges never
// straddle a mask word.
//
// Every emitted cut closes a range holding at least
// target = ceil(totalPop/nshards) surviving rows, so at most nshards
// ranges come back, non-overlapping and exhaustive over [0, n).
func shardRanges(n, segRows, nshards int, filter *bitset.Bitset) [][2]int {
	nwords := (n + 63) / 64
	// pop counts the surviving rows in words [lo, hi).
	pop := func(lo, hi int) int {
		if hi*64 > n {
			return n - lo*64
		}
		return (hi - lo) * 64
	}
	if filter != nil {
		words := filter.Words()
		pop = func(lo, hi int) int { return bitset.CountWords(words[lo:hi]) }
	}
	total := pop(0, nwords)
	if total == 0 || nshards <= 1 {
		// Nothing survives the filter (or one shard): a single range —
		// the scan only counts skips and touches no rows.
		return [][2]int{{0, n}}
	}
	target := (total + nshards - 1) / nshards
	segWords := segRows / 64 // segment boundaries are word boundaries
	out := make([][2]int, 0, nshards)
	lo, acc := 0, 0 // current range start (words) and its popcount
	cut := func(hiWord int) {
		out = append(out, [2]int{lo * 64, min(hiWord*64, n)})
		lo, acc = hiWord, 0
	}
	for segLo := 0; segLo < nwords; segLo += segWords {
		segHi := min(segLo+segWords, nwords)
		segPop := pop(segLo, segHi)
		if segPop > target && len(out) < nshards-1 {
			// Hot segment: more survivors than one shard's share.
			// Subdivide on word boundaries, continuing the running range.
			for wi := segLo; wi < segHi; wi++ {
				acc += pop(wi, wi+1)
				if acc >= target && len(out) < nshards-1 {
					cut(wi + 1)
				}
			}
			continue
		}
		acc += segPop
		if acc >= target && len(out) < nshards-1 {
			cut(segHi)
		}
	}
	if lo*64 < n {
		cut(nwords)
	}
	return out
}

// runVector executes a grouped statement: plan, sharded scan, merge,
// materialize.
func runVector(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt, aggArgs []expr.Expr, aggItems []int, protos []agg.Func, opts Options) (*Result, error) {
	p, err := planVector(ctx, src, stmt, aggItems, protos, 0)
	if err != nil {
		return nil, err
	}

	n := src.NumRows()
	var states []*shardScan
	for _, r := range shardRanges(n, src.SegRows(), shardCount(n, opts), p.filter) {
		states = append(states, newShardScan(p, r[0], r[1]))
	}
	par.Do(len(states), func(_, i int) { states[i].run() })
	// The lowest-indexed shard's error corresponds to the earliest
	// erroring row — the error the sequential scan would have hit.
	for _, ss := range states {
		if ss.err != nil {
			return nil, ss.err
		}
	}
	merged, err := mergeShards(p, states)
	if err != nil {
		return nil, err
	}

	groups := make([]*Group, len(merged))
	for i, vg := range merged {
		groups[i] = vg.g
	}

	plan := p.planInfo(len(states))
	for _, ss := range states {
		plan.SegsSkipped += ss.segsSkipped
		plan.ChunksFaulted += ss.chunksFaulted
		plan.ChunksResident += ss.chunksResident
	}
	res := &Result{
		Stmt: stmt, Source: src, Groups: groups,
		aggArgs: aggArgs, aggItems: aggItems,
		Plan: plan,
	}
	if err := res.materialize(); err != nil {
		return nil, err
	}
	return res, nil
}
