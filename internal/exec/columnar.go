package exec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// This file is the exec half of the columnar scoring fast path: instead
// of re-evaluating an aggregate's argument expression through the boxed
// expression interpreter for every (predicate, tuple) pair, a Debug run
// decodes the argument column once into a flat []float64 + NULL bitmap
// and hands lineage sets out as bitsets.

// ArgView is one aggregate's argument over every source row, as the
// float the scan fed the aggregate's state for that row (argSource): the
// argument's float64 coercion — 1 for count(*), the dictionary code for
// count(DISTINCT string column) — and NaN when NULL; Null marks the NULL
// rows. Vals[src] is therefore what ResultWithoutFloats removes row src
// with.
type ArgView struct {
	Vals []float64
	Null *bitset.Bitset
}

// errDistinctStrings is AggArgFloats' error for a DISTINCT aggregate whose
// argument evaluates to strings (a computed string, or a string column
// under anything but count). Its set is keyed by the strings and no float
// stands in for them, so Debug refuses such an aggregate rather than
// score it through a second, boxed implementation.
var errDistinctStrings = errors.New("exec: a DISTINCT aggregate over string values has no float argument view (only count(DISTINCT <string column>) and numeric arguments can be debugged)")

// AggArgFloats returns the cached ArgView of the ord'th aggregate,
// building it on first call: a bare column copies out of its typed chunks,
// any other argument evaluates once per source row. The returned view is
// shared and read-only. On out-of-core tables a chunk-load failure
// surfaces as an error, never a panic.
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
	if err := fillArgView(av, r.aggCall(ord), r.Source, 0, n); err != nil {
		return nil, err
	}
	if r.argViews == nil {
		r.argViews = make(map[int]*ArgView)
	}
	r.argViews[ord] = av
	return av, nil
}

// aggCall is the ord'th aggregate's call in the statement.
func (r *Result) aggCall(ord int) *sqlparse.AggCall { return r.Stmt.Items[r.aggItems[ord]].Agg }

// fillArgView appends call's argument on source rows [from, to) to
// av.Vals (which must hold exactly the rows before from) and marks their
// NULLs in av.Null, reading it the way the scan does (argSource).
func fillArgView(av *ArgView, call *sqlparse.AggCall, src *engine.Table, from, to int) error {
	add := func(i int, f float64, null bool) {
		if null {
			f = math.NaN()
			av.Null.Set(i)
		}
		av.Vals = append(av.Vals, f)
	}
	switch a := argSource(src.Schema(), call); a.kind {
	case argConst1:
		for i := from; i < to; i++ {
			add(i, 1, false)
		}
	case argFloat:
		cr := src.NewColReader(a.col)
		defer cr.Close()
		for i := from; i < to; i++ {
			f, null := cr.Float(i)
			add(i, f, null)
		}
	case argDict:
		cr := src.NewColReader(a.col)
		defer cr.Close()
		for i := from; i < to; i++ {
			c := cr.Code(i)
			add(i, float64(c), c < 0)
		}
	default:
		rr := src.NewRowReader()
		defer rr.Close()
		ev := rowEval(a.node, rr, src.Schema())
		for i := from; i < to; i++ {
			v, err := ev(i)
			if err != nil {
				return err
			}
			if call.Distinct && v.T == engine.TString {
				return errDistinctStrings
			}
			add(i, v.Float(), v.IsNull())
		}
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
