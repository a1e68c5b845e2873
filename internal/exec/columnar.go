package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// This file is a result's provenance: the lineage of every group and the
// columnar form the scoring fast path reads — each group's lineage as a
// bitset, and each aggregate's argument decoded once into a flat
// []float64 + NULL bitmap instead of re-evaluated through the boxed
// interpreter for every (predicate, tuple) pair.

// ArgView is one aggregate's argument over every source row, as the
// float the scan fed the aggregate's state for that row (argSource): the
// argument's float64 coercion — 1 for count(*), the dictionary code for
// count(DISTINCT string column) — and NaN when NULL; Null marks the NULL
// rows. Vals[src] is therefore what ResultWithoutFloats removes row src
// with. No float within len(Vals) is written again; an advance's view
// may extend Vals in place, past that length (growView).
type ArgView struct {
	Vals    []float64
	Null    *bitset.Bitset
	claimed atomic.Bool // Vals' spare capacity is an extension's (growView)
}

// errDistinctStrings is ArgView's error for a DISTINCT aggregate whose
// argument evaluates to strings (a computed string, or a string column
// under anything but count). Its set is keyed by the strings and no float
// stands in for them, so Debug refuses such an aggregate rather than
// score it through a second, boxed implementation.
var errDistinctStrings = errors.New("exec: a DISTINCT aggregate over string values has no float argument view (only count(DISTINCT <string column>) and numeric arguments can be debugged)")

// Provenance is a result's fine-grained provenance, one write-once value:
// each group's lineage — the source row ids that passed WHERE and fell
// into it, ascending — and, each filled on first read at most once under
// the value's own lock, each group's lineage as a bitset over source rows
// and each aggregate's ArgView. What it hands out is shared and
// read-only, and nothing extends it once Result.Provenance publishes it.
type Provenance struct {
	r    *Result
	rows [][]int // by group in scan order (Group.id)

	mu    sync.Mutex
	bits  []*bitset.Bitset // by group; nil until read
	views []*ArgView       // by aggregate ordinal; nil until read
}

// Provenance returns the result's provenance, building it on first read:
// from the nearest built ancestor's value when an Advance recorded one —
// its row ids, bitsets and argument views, extended by one lineage pass
// over the rows appended since — else by one lineage pass over the whole
// source: the scan's filter, key and run stages on one scanner, no fold,
// polling ctx, timed as the lineage stage. A failed or cancelled build
// publishes nothing and the next read retries it; a chunk-load failure is
// an error, never a panic.
func (r *Result) Provenance(ctx context.Context) (_ *Provenance, err error) {
	if v := r.prov.Load(); v != nil {
		return v, nil
	}
	defer engine.CatchSegmentLoad(&err)
	r.provMu.Lock()
	defer r.provMu.Unlock()
	if v := r.prov.Load(); v != nil {
		return v, nil
	}
	defer obs.Start(ctx, obs.Lineage).End()
	v, err := r.buildProvenance(ctx, r.anc.Load())
	if err != nil {
		return nil, err
	}
	r.prov.Store(v)
	r.anc.Store(nil) // a built value pins no ancestor
	return v, nil
}

// newProvenance returns r's value over rows, no bitset or view filled.
func (r *Result) newProvenance(rows [][]int) *Provenance {
	bits, views := make([]*bitset.Bitset, len(rows)), make([]*ArgView, len(r.aggItems))
	return &Provenance{r: r, rows: rows, bits: bits, views: views}
}

// buildProvenance builds r's value, extending anc's (nil: from scratch).
// anc's groups are r's first, in order, over a prefix of r's source at
// its retention base (Advance records no other), so the lineage pass
// scans only the rows after anc's, seeded with anc's groups' key slots.
// Grown groups copy their row ids; anc's views grow in place (growView).
func (r *Result) buildProvenance(ctx context.Context, anc *Provenance) (*Provenance, error) {
	from, old := 0, [][]int(nil)
	if anc != nil {
		from, old = anc.r.Source.NumRows(), anc.rows
	}
	// A group no appended row fell into shares anc's row ids, which no
	// one writes; every other group's are copied into one buffer.
	shared := func(gi int) bool { return gi < len(old) && len(old[gi]) == r.allGroups[gi].Rows }
	total := 0
	for gi, g := range r.allGroups {
		if !shared(gi) {
			total += g.Rows
		}
	}
	rows, buf := make([][]int, len(r.allGroups)), make([]int, total)
	for gi, g := range r.allGroups {
		if shared(gi) {
			rows[gi] = slices.Clip(old[gi])
			continue
		}
		rows[gi], buf = buf[:0:g.Rows], buf[g.Rows:]
		if gi < len(old) {
			rows[gi] = append(rows[gi], old[gi]...)
		}
	}
	if !isGrouped(r.Stmt) { // a projection's output row is its one source row
		for gi, g := range r.allGroups {
			rows[gi] = append(rows[gi], g.FirstRow)
		}
	} else if p, err := planVector(ctx, r.Source, r.Stmt, nil, nil, from); err != nil {
		return nil, err
	} else if seeds, err := p.seed(r.allGroups[:len(old)]); err != nil {
		return nil, err
	} else if err := p.lineage(rows, seeds, from); err != nil {
		return nil, err
	}
	v := r.newProvenance(rows)
	if anc == nil {
		return v, nil
	}
	anc.mu.Lock()
	copy(v.bits, anc.bits)
	copy(v.views, anc.views)
	anc.mu.Unlock()
	for gi, b := range v.bits {
		if b != nil {
			v.bits[gi] = bitset.SnapshotWords(r.Source.NumRows(), b.Words())
			for _, src := range rows[gi][len(old[gi]):] {
				v.bits[gi].Set(src)
			}
		}
	}
	for ord, av := range v.views {
		if av != nil { // an evaluation error leaves the view to a build on read
			v.views[ord], _ = growView(av, r.aggCall(ord), r.Source)
		}
	}
	return v, nil
}

// Rows returns output row ri's lineage, ascending (nil when ri is out of
// range). Shared, read-only.
func (v *Provenance) Rows(ri int) []int {
	if ri < 0 || ri >= len(v.r.Groups) {
		return nil
	}
	return v.rows[v.r.Groups[ri].id]
}

// Bits returns output row ri's lineage as a bitset over source rows,
// built on first read. Shared, read-only.
func (v *Provenance) Bits(ri int) *bitset.Bitset {
	gi := v.r.Groups[ri].id
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.bits[gi] == nil {
		v.bits[gi] = bitset.FromRows(v.r.Source.NumRows(), v.rows[gi])
	}
	return v.bits[gi]
}

// Lineage returns the union of the given output rows' lineage, ascending
// and deduplicated (out-of-range rows contribute nothing): F in the
// paper, the fine-grained provenance of the suspect groups S.
func (v *Provenance) Lineage(rowIdxs []int) []int {
	b := bitset.New(v.r.Source.NumRows())
	for _, ri := range rowIdxs {
		for _, src := range v.Rows(ri) {
			b.Set(src)
		}
	}
	return b.Rows()
}

// ArgView returns the ord'th aggregate's argument view, built on first
// read: a bare column copies out of its typed chunks, any other argument
// evaluates once per source row. A failed build publishes nothing; a
// chunk-load failure is an error, never a panic.
func (v *Provenance) ArgView(ord int) (_ *ArgView, err error) {
	defer engine.CatchSegmentLoad(&err)
	if ord < 0 || ord >= len(v.views) {
		return nil, fmt.Errorf("exec: aggregate ordinal %d out of range (%d aggregates)", ord, len(v.views))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.views[ord] == nil {
		av, err := growView(nil, v.r.aggCall(ord), v.r.Source)
		if err != nil {
			return nil, err
		}
		v.views[ord] = av
	}
	return v.views[ord], nil
}

// aggCall is the ord'th aggregate's call in the statement.
func (r *Result) aggCall(ord int) *sqlparse.AggCall { return r.Stmt.Items[r.aggItems[ord]].Agg }

// growView returns call's argument view over every row of src, read the
// way the scan reads it (argSource): old, the view over src's first
// len(old.Vals) rows (nil: none), extended by the rest: the first to
// claim old.Vals' spare capacity appends there, so an advance chain pays
// for its appended rows (and append's growth), not the table, and a
// sibling copies. As in the engine's table tail, no published float is
// written. A bare column copies out of its typed chunks a segment at a time.
func growView(old *ArgView, call *sqlparse.AggCall, src *engine.Table) (*ArgView, error) {
	n := src.NumRows()
	av, null := new(ArgView), []uint64(nil)
	if old != nil {
		av.Vals, null = old.Vals, old.Null.Words()
	}
	if old == nil || !old.claimed.CompareAndSwap(false, true) {
		av.Vals = append(make([]float64, 0, n), av.Vals...)
	}
	av.Null = bitset.SnapshotWords(n, null)
	add := func(i int, f float64, null bool) {
		if null {
			f = math.NaN()
			av.Null.Set(i)
		}
		av.Vals = append(av.Vals, f)
	}
	switch a, from := argSource(src.Schema(), call), len(av.Vals); a.kind {
	case argConst1:
		for i := from; i < n; i++ {
			add(i, 1, false)
		}
	case argFloat, argDict:
		cr := src.NewColReader(a.col)
		defer cr.Close()
		for i, seg := from, src.SegRows(); i < n; i = (i/seg + 1) * seg {
			if a.kind == argDict {
				for j, c := range cr.Codes(i / seg)[i%seg:] {
					add(i+j, float64(c), c < 0)
				}
				continue
			}
			vals, words := cr.Floats(i / seg) // NaN at NULL; word-aligned
			av.Vals = append(av.Vals, vals[i%seg:]...)
			copy(av.Null.Words()[i/64:], words[i%seg/64:])
		}
	default:
		rr := src.NewRowReader()
		defer rr.Close()
		ev := rowEval(a.node, rr, src.Schema())
		for i := from; i < n; i++ {
			v, err := ev(i)
			if err != nil {
				return nil, err
			}
			if call.Distinct && v.T == engine.TString {
				return nil, errDistinctStrings
			}
			add(i, v.Float(), v.IsNull())
		}
	}
	return av, nil
}
