package exec

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
)

// This file is the exec half of the columnar scoring fast path: instead
// of re-evaluating an aggregate's argument expression through the boxed
// expression interpreter for every (predicate, tuple) pair, a Debug run
// decodes the argument column once into a flat []float64 + NULL bitmap
// and hands lineage sets out as bitsets.

// ArgView is one aggregate's argument evaluated over every source row:
// Vals[src] is the float64 coercion of the argument on row src (1 for
// count(*)), NaN when NULL; Null marks the NULL rows.
type ArgView struct {
	Vals []float64
	Null *bitset.Bitset
}

// AggArgFloats returns the cached ArgView of the ord'th aggregate,
// building it on first call: a bare numeric column copies out of its
// typed view, any other argument evaluates once per source row. The
// returned view is shared and read-only. On out-of-core tables a
// chunk-load failure surfaces as an error, never a panic.
func (r *Result) AggArgFloats(ord int) (av *ArgView, err error) {
	defer engine.CatchSegmentLoad(&err)
	if ord < 0 || ord >= len(r.aggArgs) {
		return nil, fmt.Errorf("exec: aggregate ordinal %d out of range (%d aggregates)", ord, len(r.aggArgs))
	}
	r.argMu.Lock()
	defer r.argMu.Unlock()
	if av, ok := r.argViews[ord]; ok {
		return av, nil
	}
	n := r.Source.NumRows()
	av = &ArgView{Vals: make([]float64, 0, n), Null: bitset.New(n)}
	if err := fillArgView(av, r.aggArgs[ord], r.Source, 0, n); err != nil {
		return nil, err
	}
	if r.argViews == nil {
		r.argViews = make(map[int]*ArgView)
	}
	r.argViews[ord] = av
	return av, nil
}

// fillArgView appends arg's value on source rows [from, to) to av.Vals
// (which must hold exactly the rows before from) and marks their NULLs
// in av.Null: 1 for count(*)'s nil argument, the typed view's cells for
// a bare numeric column, the compiled evaluation otherwise.
func fillArgView(av *ArgView, arg expr.Expr, src *engine.Table, from, to int) error {
	if arg == nil { // count(*): every row contributes 1
		for i := from; i < to; i++ {
			av.Vals = append(av.Vals, 1)
		}
		return nil
	}
	if col, ok := arg.(*expr.Col); ok {
		if fv := src.FloatView(col.Index); fv != nil {
			fr := fv.NewReader()
			defer fr.Close()
			for i := from; i < to; i++ {
				f, null := fr.At(i)
				av.Vals = append(av.Vals, f)
				if null {
					av.Null.Set(i)
				}
			}
			return nil
		}
	}
	rr := src.NewRowReader()
	defer rr.Close()
	ev := rowEval(arg, rr, src.NumCols())
	for i := from; i < to; i++ {
		v, err := ev(i)
		if err != nil {
			return err
		}
		if v.IsNull() {
			av.Vals = append(av.Vals, math.NaN())
			av.Null.Set(i)
			continue
		}
		av.Vals = append(av.Vals, v.Float())
	}
	return nil
}

// LineageBits returns the union of the given output rows' lineage as a
// bitset over source rows — the bitmap form of Lineage.
func (r *Result) LineageBits(rowIdxs []int) *bitset.Bitset {
	b := bitset.New(r.Source.NumRows())
	for _, ri := range rowIdxs {
		if ri < 0 || ri >= len(r.Groups) {
			continue
		}
		for _, src := range r.Groups[ri].Lineage {
			b.Set(src)
		}
	}
	return b
}

// GroupLineageBitsShared returns output row ri's lineage as a bitset
// over source rows, from the per-result cache — built on first request,
// shared (read-only!) afterwards. Advance carries this cache across
// appended batches by extending each bitset with the group's suffix
// lineage, so a streaming re-Debug reuses the unchanged prefix instead
// of re-setting every lineage bit.
func (r *Result) GroupLineageBitsShared(ri int) *bitset.Bitset {
	if ri < 0 || ri >= len(r.Groups) {
		return bitset.New(r.Source.NumRows())
	}
	g := r.Groups[ri]
	r.argMu.Lock()
	if b, ok := r.lineBits[g]; ok {
		r.argMu.Unlock()
		return b
	}
	r.argMu.Unlock()
	// Build outside the lock so parallel Scorer construction isn't
	// serialized; a racing duplicate build is correct and one wins.
	b := bitset.New(r.Source.NumRows())
	for _, src := range g.Lineage {
		b.Set(src)
	}
	r.argMu.Lock()
	defer r.argMu.Unlock()
	if prev, ok := r.lineBits[g]; ok {
		return prev
	}
	if r.lineBits == nil {
		r.lineBits = make(map[*Group]*bitset.Bitset)
	}
	r.lineBits[g] = b
	return b
}
