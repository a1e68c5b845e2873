package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// This file is the grouped scan — the one pipeline every grouped
// statement runs on:
//
//  1. WHERE evaluates once into a bitmap (filter.go),
//  2. each group-by expression becomes an integer key slot per row —
//     dictionary codes for string columns, canonical float bits for
//     numeric columns, an evaluator for anything else (interned codes
//     when it yields strings) — looked up through a dense slot table
//     (one string column), a uint64 map (one key of any other kind) or
//     a byte-string map (two or more keys),
//  3. numeric argument columns (engine.FloatView) stream straight into
//     the aggregate states through agg.FloatAdder, and
//  4. the row space splits across a worker pool, each shard
//     accumulating private group states that merge in shard order via
//     agg.Merger — which preserves the sequential scan's
//     first-appearance group order, ascending lineage, and FirstRow.
//     Aggregates without a Merge (DISTINCT) scan as one shard.
//
// RunReference (exec.go) is the boxed oracle the randomized parity
// tests pin this pipeline to, bit for bit.

// Options tunes an execution. The zero value is what every caller
// outside the tests passes.
type Options struct {
	// Shards forces the number of scan partitions (0 = automatic:
	// GOMAXPROCS capped so each shard keeps at least a few thousand
	// rows). Tests pin it on tables the automatic choice would not
	// split. Ignored when the statement is not shardable.
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
	// MaskedAgg is true when a global (no GROUP BY) aggregation over
	// float-fed arguments folded whole segment chunks under the filter
	// mask (agg.FoldMasked) instead of visiting rows through scanRow.
	MaskedAgg bool
	// SortCarried is true when an incremental Advance merged changed and
	// new groups into the carried ORDER BY order instead of re-sorting
	// the full output.
	SortCarried bool
}

const (
	// minShardRows keeps shards coarse enough that per-shard setup and
	// merge never dominate.
	minShardRows = 4096
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
	kindDict  keyKind = iota // string column: dictionary code
	kindFloat                // numeric column: canonical float bits
	kindEval                 // anything else: per-row evaluator
)

// keySrc is one group-by column's per-row key source.
type keySrc struct {
	kind keyKind
	dict *engine.DictView  // kindDict: segment code chunks + Code lookups
	fv   *engine.FloatView // kindFloat: segment value/NULL chunks
	col  int               // kindFloat: the column, for the group's boxed key
	node expr.Expr         // kindEval (evaluator built per shard)
}

type argKind int

const (
	argConst1 argKind = iota // count(*): every row contributes 1
	argFloat                 // numeric column via FloatView
	argEval                  // anything else: per-row evaluator
)

// argSrc is one aggregate's per-row argument source.
type argSrc struct {
	kind     argKind
	fv       *engine.FloatView // argFloat
	col      int               // argFloat
	node     expr.Expr         // argEval (evaluator built per shard)
	floatFed bool              // state implements agg.FloatAdder and the source is float
}

// vectorPlan is the analyzed statement: everything the shard workers
// share read-only (strCodes excepted, which strMu guards).
type vectorPlan struct {
	ctx       context.Context
	src       *engine.Table
	stmt      *sqlparse.SelectStmt
	protos    []agg.Func
	keys      []keySrc
	args      []argSrc
	filter    *bitset.Bitset // nil: no WHERE
	fstats    filterStats
	denseSize int // >0: single string group column, dense slot table
	mergeable bool
	// maskedAgg: global aggregate whose arguments all fold as floats
	// (count(*) or numeric columns into FloatAdder states) under a
	// filter — the scan runs the batch mask kernels per segment chunk
	// instead of per row.
	maskedAgg bool
	// strCodes interns the strings evaluated group keys yield (GROUP BY
	// lower(s), or a string column of a snapshot too old for a DictView):
	// plan-wide, so every shard maps equal strings to one slot and
	// shard states merge on it.
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
// pass 0, Advance passes the old row count so residual conjuncts touch
// only the suffix.
func planVector(ctx context.Context, src *engine.Table, stmt *sqlparse.SelectStmt, aggArgs []expr.Expr, protos []agg.Func, filterFrom int) (*vectorPlan, error) {
	p := &vectorPlan{ctx: ctx, src: src, stmt: stmt, protos: protos, mergeable: true}
	for _, proto := range protos {
		if _, ok := proto.(agg.Merger); !ok {
			p.mergeable = false
		}
	}

	p.keys = make([]keySrc, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		p.keys[i] = keySrc{kind: kindEval, node: g}
		if col, ok := g.(*expr.Col); ok {
			if dv := src.DictView(col.Index); dv != nil {
				p.keys[i] = keySrc{kind: kindDict, dict: dv}
				if len(stmt.GroupBy) == 1 {
					p.denseSize = dv.NumValues() + 1
				}
			} else if fv := src.FloatView(col.Index); fv != nil {
				p.keys[i] = keySrc{kind: kindFloat, fv: fv, col: col.Index}
			}
		}
	}

	p.args = make([]argSrc, len(aggArgs))
	for ai, arg := range aggArgs {
		_, isFA := protos[ai].(agg.FloatAdder)
		p.args[ai] = argSrc{kind: argEval, node: arg}
		if arg == nil {
			p.args[ai] = argSrc{kind: argConst1, floatFed: isFA}
		} else if col, ok := arg.(*expr.Col); ok {
			if fv := src.FloatView(col.Index); fv != nil {
				p.args[ai] = argSrc{kind: argFloat, fv: fv, col: col.Index, floatFed: isFA}
			}
		}
	}

	var err error
	if p.filter, p.fstats, err = buildFilter(ctx, src, stmt.Where, filterFrom); err != nil {
		return nil, err
	}

	// Global aggregation with every argument float-fed (count(*) or a
	// numeric column feeding a FloatAdder) never needs per-row key or
	// boxed reads: under a filter the scan can fold whole segment chunks
	// through the batch mask kernels.
	if len(p.keys) == 0 && p.filter != nil && len(p.args) > 0 {
		p.maskedAgg = true
		for _, a := range p.args {
			if (a.kind != argConst1 && a.kind != argFloat) || !a.floatFed {
				p.maskedAgg = false
				break
			}
		}
	}
	return p, nil
}

// planInfo is the PlanInfo of a scan of this plan over the given number
// of shards.
func (p *vectorPlan) planInfo(shards int) PlanInfo {
	plan := p.fstats.plan()
	plan.Vectorized, plan.Shards, plan.MaskedAgg = true, shards, p.maskedAgg
	return plan
}

// vGroup is one shard-local (or merged) group with its key slots and
// the pre-asserted unboxed accumulation handles.
type vGroup struct {
	g     *Group
	slots []uint64         // one per group-by column
	fas   []agg.FloatAdder // per aggregate ordinal; nil when boxed
	gain  int              // mergeShards: lineage rows later shards still add
}

func (p *vectorPlan) newGroup(slots []uint64, r int) *vGroup {
	g := &Group{Aggs: make([]agg.Func, len(p.protos)), FirstRow: r}
	vg := &vGroup{g: g, slots: append([]uint64(nil), slots...), fas: make([]agg.FloatAdder, len(p.protos))}
	for i, proto := range p.protos {
		g.Aggs[i] = proto.Clone()
		if p.args[i].floatFed {
			vg.fas[i] = g.Aggs[i].(agg.FloatAdder)
		}
	}
	return vg
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

// cursor is what closeCursors needs of the engine's segment readers.
type cursor interface {
	Close()
	Counters() (faulted, resident int)
}

// shardScan is one worker's private accumulation state over [lo, hi).
type shardScan struct {
	groupIndex
	plan     *vectorPlan
	lo, hi   int
	slots    []uint64       // the current row's key
	keyVals  []engine.Value // the values the current row's kindEval slots came from
	keyEvals []expr.Evaluator
	argEvals []expr.Evaluator
	err      error

	// Segment readers: one per column view the scan reads, pinning one
	// chunk at a time (engine.FloatReader/DictReader) so out-of-core
	// reads fault per segment, not per row. Indexed in parallel with
	// plan.keys / plan.args; nil where the source kind doesn't apply.
	keyFC []*engine.FloatReader
	keyDC []*engine.DictReader
	argFC []*engine.FloatReader
	// rr boxes single cells — for evaluators, non-float arguments, a new
	// group's column keys — off the same typed chunks, pinned per segment.
	rr *engine.RowReader
	// cursors lists rr and every reader above, for closeCursors.
	cursors []cursor

	segsSkipped    int // fully-pruned out-of-core segments never pinned
	chunksFaulted  int
	chunksResident int
}

func newShardScan(p *vectorPlan, lo, hi int) *shardScan {
	ss := &shardScan{groupIndex: newGroupIndex(p), plan: p, lo: lo, hi: hi}
	ss.rr = p.src.NewRowReader()
	ss.cursors = append(ss.cursors, ss.rr)
	ncols := p.src.NumCols()
	// slots is rewritten on every row: give it a whole cache line, or the
	// tiny allocator packs two shards' buffers into one and the shard
	// goroutines spend a third of a grouped scan bouncing it.
	ss.slots = make([]uint64, len(p.keys), max(len(p.keys), 8))
	ss.keyVals = make([]engine.Value, len(p.keys))
	ss.keyEvals = make([]expr.Evaluator, len(p.keys))
	ss.keyFC = make([]*engine.FloatReader, len(p.keys))
	ss.keyDC = make([]*engine.DictReader, len(p.keys))
	for i, k := range p.keys {
		switch k.kind {
		case kindDict:
			ss.keyDC[i] = k.dict.NewReader()
			ss.cursors = append(ss.cursors, ss.keyDC[i])
		case kindFloat:
			ss.keyFC[i] = k.fv.NewReader()
			ss.cursors = append(ss.cursors, ss.keyFC[i])
		default:
			ss.keyEvals[i] = rowEval(k.node, ss.rr, ncols)
		}
	}
	ss.argEvals = make([]expr.Evaluator, len(p.args))
	ss.argFC = make([]*engine.FloatReader, len(p.args))
	for ai, a := range p.args {
		switch a.kind {
		case argFloat:
			ss.argFC[ai] = a.fv.NewReader()
			ss.cursors = append(ss.cursors, ss.argFC[ai])
		case argEval:
			ss.argEvals[ai] = rowEval(a.node, ss.rr, ncols)
		}
	}
	return ss
}

// closeCursors releases every pinned chunk and folds the cursors' pin
// counters into the shard totals. Deferred from run() so error and
// cancellation exits release pins too.
func (ss *shardScan) closeCursors() {
	for _, c := range ss.cursors {
		c.Close()
		f, res := c.Counters()
		ss.chunksFaulted += f
		ss.chunksResident += res
	}
}

// group finds or creates the group keyed by slots; r is the creating
// row, which the shard has pinned. A new group's Key is boxed here, once,
// as what the reference evaluates GROUP BY to on that row: a code's
// string, a numeric column's actual cell (its slot folded -0.0, NaN
// payloads and ints past 2^53), a computed key's evaluated value.
func (ss *shardScan) group(slots []uint64, r int) *vGroup {
	gi, ok := ss.index(slots)
	if ok {
		return ss.groups[gi]
	}
	vg := ss.plan.newGroup(slots, r)
	if len(slots) > 0 {
		vg.g.Key = make([]engine.Value, len(slots))
	}
	for i, k := range ss.plan.keys {
		switch {
		case k.kind == kindFloat:
			vg.g.Key[i] = ss.rr.Value(r, k.col)
		case k.kind == kindEval:
			vg.g.Key[i] = ss.keyVals[i]
		case slots[i] != 0: // kindDict; slot 0 is NULL
			vg.g.Key[i] = engine.NewString(k.dict.Value(int32(slots[i] - 1)))
		}
	}
	ss.groups = append(ss.groups, vg)
	return vg
}

// scanRow folds one passing row into the shard state.
func (ss *shardScan) scanRow(r int) error {
	p := ss.plan
	for i := range p.keys {
		switch p.keys[i].kind {
		case kindDict:
			ss.slots[i] = uint64(ss.keyDC[i].CodeAt(r) + 1) // NULL code -1 → slot 0
		case kindFloat:
			if f, isNull := ss.keyFC[i].At(r); isNull {
				ss.slots[i] = nullSlot
			} else {
				ss.slots[i] = canonSlot(f)
			}
		default: // kindEval
			v, err := ss.keyEvals[i](r)
			if err != nil {
				return err
			}
			ss.keyVals[i], ss.slots[i] = v, p.valueSlot(v)
		}
	}
	vg := ss.group(ss.slots, r)
	grp := vg.g
	grp.Lineage = append(grp.Lineage, r)
	for ai := range p.args {
		a := &p.args[ai]
		switch a.kind {
		case argConst1:
			if fa := vg.fas[ai]; fa != nil {
				fa.AddFloat(1)
			} else {
				grp.Aggs[ai].Add(engine.NewInt(1))
			}
		case argFloat:
			f, isNull := ss.argFC[ai].At(r)
			if isNull {
				continue // Add ignores NULLs; so does skipping
			}
			if fa := vg.fas[ai]; fa != nil {
				fa.AddFloat(f)
			} else {
				grp.Aggs[ai].Add(ss.rr.Value(r, a.col))
			}
		default: // argEval
			v, err := ss.argEvals[ai](r)
			if err != nil {
				return err
			}
			grp.Aggs[ai].Add(v)
		}
	}
	return nil
}

// run scans the shard's row range, restricted to the filter bitmap.
// Each shard polls the plan's ctx once per ctxCheckRows rows (once per
// 64 filter words on the bitmap path), so a cancelled query stops all
// shards promptly; the first shard to observe cancellation records the
// context error and runVector surfaces it.
func (ss *shardScan) run() {
	p := ss.plan
	if ss.hi <= ss.lo {
		return
	}
	// A chunk fault can fail (corrupt or vanished segment file); the
	// loader surfaces that as a SegmentLoadError panic. Recover it into
	// ss.err here — each shard runs on its own goroutine, so the
	// RunOnWithCtx-level catch can't see it — and release any pins the
	// cursors still hold on every exit path, including that one.
	defer engine.CatchSegmentLoad(&ss.err)
	defer ss.closeCursors()
	ctx := p.ctx
	if p.filter == nil {
		for r := ss.lo; r < ss.hi; r++ {
			if r%ctxCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					ss.err = ctxErr(err)
					return
				}
			}
			if err := ss.scanRow(r); err != nil {
				ss.err = err
				return
			}
		}
		return
	}
	words := p.filter.Words()
	ss.countSkips(words)
	if p.maskedAgg {
		ss.runMaskedGlobal(ctx, words)
		return
	}
	loWord, hiWord := ss.lo/64, (ss.hi-1)/64
	for wi := loWord; wi <= hiWord; wi++ {
		if wi%(ctxCheckRows/64) == 0 {
			if err := ctx.Err(); err != nil {
				ss.err = ctxErr(err)
				return
			}
		}
		w := words[wi]
		if wi == loWord {
			w &= ^uint64(0) << (uint(ss.lo) % 64)
		}
		if wi == hiWord {
			if rem := ss.hi - wi*64; rem < 64 {
				w &= (1 << uint(rem)) - 1
			}
		}
		for w != 0 {
			r := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if err := ss.scanRow(r); err != nil {
				ss.err = err
				return
			}
		}
	}
}

// runMaskedGlobal is the global-aggregate scan: instead of calling
// scanRow per surviving bit, it folds each segment chunk through the
// batch mask kernels (agg.FoldMasked), paying per word rather than per
// row for the value reads. Lineage and FirstRow still come from set-bit
// iteration, so the output is bit-identical to scanRow's: every
// FloatAdder receives the same values in the same ascending row order.
// Segments whose mask words are all zero are skipped without pinning
// anything, preserving zone-map pruning on out-of-core tables.
func (ss *shardScan) runMaskedGlobal(ctx context.Context, words []uint64) {
	p := ss.plan
	segRows := p.src.SegRows()
	n := p.src.NumRows()
	// The one group's lineage gains the shard's surviving rows: size it
	// once, from the mask (the edge words round the count up by < 128).
	survivors := bitset.CountWords(words[ss.lo/64 : (ss.hi+63)/64])
	var vg *vGroup
	if len(ss.groups) > 0 {
		vg = ss.groups[0] // Advance-seeded carried group
		vg.g.Lineage = slices.Grow(vg.g.Lineage, survivors)
	}
	var scratch []uint64
	wtick := 0
	for segBase := ss.lo - ss.lo%segRows; segBase < ss.hi; segBase += segRows {
		lo, hi := segBase, segBase+segRows
		if lo < ss.lo {
			lo = ss.lo
		}
		if hi > ss.hi {
			hi = ss.hi
		}
		mask := words[segBase/64 : (hi+63)/64]
		// Clip shard-partial edge words: zero rows before lo, and drop
		// bits at or past hi that belong to the neighbouring shard (at
		// hi == n the bitset's trimmed ghost bits are already zero).
		// Segment starts are word-aligned, so mask word j covers chunk
		// rows [64j, 64j+64) — exactly FoldMasked's contract.
		if lo != segBase || (hi%64 != 0 && hi != n) {
			scratch = append(scratch[:0], mask...)
			off := lo - segBase
			for j := 0; j < off/64; j++ {
				scratch[j] = 0
			}
			if r := off % 64; r != 0 {
				scratch[off/64] &= ^uint64(0) << uint(r)
			}
			if r := hi % 64; r != 0 && hi != n {
				scratch[len(scratch)-1] &= (1 << uint(r)) - 1
			}
			mask = scratch
		}
		if !bitset.AnyWords(mask) {
			wtick += len(mask)
			continue
		}
		segPass := 0
		for j, w := range mask {
			if (wtick+j)%(ctxCheckRows/64) == 0 {
				if err := ctx.Err(); err != nil {
					ss.err = ctxErr(err)
					return
				}
			}
			base := segBase + j*64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				if vg == nil {
					vg = ss.group(nil, r)
					vg.g.Lineage = make([]int, 0, survivors)
				}
				vg.g.Lineage = append(vg.g.Lineage, r)
				segPass++
			}
		}
		wtick += len(mask)
		k := segBase / segRows
		for ai := range p.args {
			fa := vg.fas[ai]
			if p.args[ai].kind == argConst1 {
				// count(*): one AddFloat(1) per surviving row, exactly
				// what scanRow feeds it — NULLs count, like the
				// reference.
				for i := 0; i < segPass; i++ {
					fa.AddFloat(1)
				}
				continue
			}
			vals, null := ss.argFC[ai].Chunk(k)
			agg.FoldMasked(fa, vals, null, mask)
		}
	}
}

// countSkips counts the out-of-core segments wholly inside this
// shard's range whose filter words are all zero. The bitmap loop below
// never calls scanRow for them, so they are served entirely without
// disk — typically because zone-map pruning zeroed their mask chunks.
// A segment straddling a shard boundary (sub-segment sharding on small
// tables) is not counted by either shard.
func (ss *shardScan) countSkips(words []uint64) {
	segRows := ss.plan.src.SegRows()
	for k := (ss.lo + segRows - 1) / segRows; (k+1)*segRows <= ss.hi; k++ {
		if !ss.plan.src.SegmentFaultable(k) {
			continue
		}
		if !bitset.AnyWords(words[k*segRows/64 : (k+1)*segRows/64]) {
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
			if m, ok := tgt.g.Aggs[ai].(agg.Merger); !ok || !m.Merge(part.Aggs[ai]) {
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
func shardCount(p *vectorPlan, n int, opts Options) int {
	if !p.mergeable {
		return 1
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if max := (n + minShardRows - 1) / minShardRows; shards > max {
			shards = max
		}
	}
	if max := (n + 63) / 64; shards > max {
		shards = max
	}
	if shards < 1 {
		shards = 1
	}
	return shards
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
// next to a shard's share, so a shard's filter words, view chunks and
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
		hiRow := hiWord * 64
		if hiRow > n {
			hiRow = n
		}
		out = append(out, [2]int{lo * 64, hiRow})
		lo, acc = hiWord, 0
	}
	for segLo := 0; segLo < nwords; segLo += segWords {
		segHi := segLo + segWords
		if segHi > nwords {
			segHi = nwords
		}
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
	p, err := planVector(ctx, src, stmt, aggArgs, protos, 0)
	if err != nil {
		return nil, err
	}

	n := src.NumRows()
	var states []*shardScan
	for _, r := range shardRanges(n, src.SegRows(), shardCount(p, n, opts), p.filter) {
		states = append(states, newShardScan(p, r[0], r[1]))
	}
	if len(states) == 1 {
		states[0].run()
	} else {
		var wg sync.WaitGroup
		for _, ss := range states {
			wg.Add(1)
			go func(ss *shardScan) {
				defer wg.Done()
				ss.run()
			}(ss)
		}
		wg.Wait()
	}
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
