package influence

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/par"
)

// Scorer is the state predicate scoring runs on: everything a
// Debug run needs to evaluate ε-without-a-set-of-rows, decoded once.
//
//   - each suspect group's lineage as a bitset (plus its occupied word
//     span, so intersection skips the rest of the table),
//   - the aggregate's argument column as a flat []float64 + NULL bitmap
//     (no boxed expression interpretation per tuple),
//   - the live aggregate states (agg.Func.ResultWithoutFloats), with
//     each group's surviving argument values yielded from its lineage
//     words when min or max must recompute.
//
// After construction the Scorer is read-only and safe for concurrent
// use; per-goroutine mutable state lives in Scratch. This is what lets
// the ranker score candidate predicates in parallel.
type Scorer struct {
	suspect []int
	metric  errmetric.Metric
	eps     float64
	// base[i] is suspect group i's current aggregate (NaN when NULL).
	base   []float64
	states []agg.Func
	groups []groupBits
	fbits  *bitset.Bitset
	args   *exec.ArgView
	nsrc   int
	// srcBase is the source table's retention base: row ids, and so
	// firstRows and the lineage, mean the same only between scorers of
	// one base.
	srcBase int
	// firstRows[i] identifies suspect group i by its first source row —
	// stable across the versions of one base, so RankAdvancedCtx can tell
	// that a previous analysis scored the same groups even when the
	// materialized output order shifted.
	firstRows []int
	// lineLens[i] is suspect group i's lineage length. Lineage is
	// append-only within a table family, so between two scorers of one
	// chain an equal length is an equal row set.
	lineLens []int
}

// groupBits is one suspect group's lineage with its non-zero word span.
type groupBits struct {
	bits   *bitset.Bitset
	lo, hi int
	empty  bool
}

// Scratch holds one goroutine's reusable buffers for EpsWithoutBits.
type Scratch struct {
	vals []float64
	buf  []float64
	// kept yields the argument values of the rows in gw[lo:hi+1] &^ rm
	// &^ NULL: a group's survivors of a removal, which min and max read
	// when every copy of their extremum goes. It is bound once, in
	// NewScratch, so handing it to a state allocates nothing.
	kept   iter.Seq[float64]
	gw, rm []uint64
	lo, hi int
}

// NewScorer builds the columnar scoring state for the ord'th aggregate
// of res over the suspect output rows. It fails when the selection is
// out of range, res's provenance fails to build (exec.Result.Provenance)
// or the argument has no float view (exec.Provenance.ArgView: an
// evaluation error, or a DISTINCT aggregate over string values); there is
// no other scorer to fall back to, so callers report the error.
func NewScorer(res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Scorer, error) {
	if err := checkSelection(res, suspect, ord); err != nil {
		return nil, err
	}
	s := &Scorer{
		suspect:   suspect,
		metric:    metric,
		base:      make([]float64, len(suspect)),
		states:    make([]agg.Func, len(suspect)),
		nsrc:      res.Source.NumRows(),
		srcBase:   res.Source.Base(),
		firstRows: make([]int, len(suspect)),
		lineLens:  make([]int, len(suspect)),
	}
	for i, ri := range suspect {
		s.firstRows[i] = res.Groups[ri].FirstRow
		s.lineLens[i] = res.Groups[ri].Rows
		s.states[i] = res.Groups[ri].Aggs[ord]
		if v, ok := res.AggFloat(ri, ord); ok {
			s.base[i] = v
		} else {
			s.base[i] = math.NaN()
		}
	}
	s.eps = errmetric.Eval(metric, s.base)

	prov, err := res.Provenance(context.Background())
	if err != nil {
		return nil, err
	}
	if s.args, err = prov.ArgView(ord); err != nil {
		return nil, err
	}
	s.buildGroupBits(prov, suspect)
	return s, nil
}

// sameLineage reports whether s — built over a result advanced from
// prev's within one table family — scores exactly the rows prev scored:
// the same retention base (row ids mean the same), the same groups by
// first source row at the same output rows (TupleInfluence.GroupRow),
// none of them grown, and ε unmoved to the bit.
func (s *Scorer) sameLineage(prev *Scorer) bool {
	return s.srcBase == prev.srcBase && slices.Equal(s.suspect, prev.suspect) &&
		slices.Equal(s.firstRows, prev.firstRows) && slices.Equal(s.lineLens, prev.lineLens) &&
		math.Float64bits(s.eps) == math.Float64bits(prev.eps)
}

// checkSelection validates a suspect selection and aggregate ordinal
// against res.
func checkSelection(res *exec.Result, suspect []int, ord int) error {
	if len(suspect) == 0 {
		return fmt.Errorf("influence: no suspect groups")
	}
	if ord < 0 || ord >= len(res.AggOrdinals()) {
		return fmt.Errorf("influence: aggregate ordinal %d out of range (%d aggregates)", ord, len(res.AggOrdinals()))
	}
	for _, ri := range suspect {
		if ri < 0 || ri >= res.NumRows() {
			return fmt.Errorf("influence: suspect row %d out of range", ri)
		}
	}
	return nil
}

// buildGroupBits fetches each suspect group's lineage bitset from the
// result's provenance — built once per value; an advanced result's value
// copies the bitsets its ancestor's held and sets only the appended rows'
// bits — and unions them into F. The per-group work is independent, so
// par.Do spreads it; each worker ORs into a partial F of its own (the
// caller's is F), and the partials merge at the end, keeping the result
// identical to the sequential build.
func (s *Scorer) buildGroupBits(prov *exec.Provenance, suspect []int) {
	s.groups = make([]groupBits, len(suspect))
	partial := make([]*bitset.Bitset, par.Width(len(suspect)))
	for w := range partial {
		partial[w] = bitset.New(s.nsrc)
	}
	par.Do(len(suspect), func(w, i int) {
		b := prov.Bits(suspect[i])
		lo, hi, ok := b.WordRange()
		s.groups[i] = groupBits{bits: b, lo: lo, hi: hi, empty: !ok}
		partial[w].Or(b)
	})
	s.fbits = partial[0]
	for _, f := range partial[1:] {
		s.fbits.Or(f)
	}
}

// FBits returns the suspect groups' combined lineage (F) as a bitset.
// Shared and read-only.
func (s *Scorer) FBits() *bitset.Bitset { return s.fbits }

// NewScratch returns a fresh per-goroutine scratch.
func (s *Scorer) NewScratch() *Scratch {
	sc := &Scratch{vals: make([]float64, len(s.suspect)), buf: make([]float64, 0, 256)}
	vals, nw := s.args.Vals, s.args.Null.Words()
	sc.kept = func(yield func(float64) bool) {
		for wi := sc.lo; wi <= sc.hi; wi++ {
			for w := sc.gw[wi] &^ sc.rm[wi] &^ nw[wi]; w != 0; w &= w - 1 {
				if !yield(vals[wi*64+bits.TrailingZeros64(w)]) {
					return
				}
			}
		}
	}
	return sc
}

// without is suspect group i's aggregate with the values vals of the
// rows rm removed (NaN when NULL).
func (s *Scorer) without(i int, vals []float64, rm []uint64, sc *Scratch) float64 {
	g := &s.groups[i]
	sc.gw, sc.rm, sc.lo, sc.hi = g.bits.Words(), rm, g.lo, g.hi
	if v, ok := s.states[i].ResultWithoutFloats(vals, sc.kept); ok {
		return v
	}
	return math.NaN()
}

// EpsWithoutBits evaluates ε with the matched source rows removed from
// their groups — the bitset counterpart of EpsWithoutRows. matched may
// contain rows outside the suspect lineage; they are ignored. Steady
// state it allocates nothing (for the algebraic aggregates).
func (s *Scorer) EpsWithoutBits(matched *bitset.Bitset, sc *Scratch) float64 {
	copy(sc.vals, s.base)
	mw := matched.Words()
	nw := s.args.Null.Words()
	for i := range s.groups {
		g := &s.groups[i]
		if g.empty {
			continue
		}
		gw := g.bits.Words()
		buf := sc.buf[:0]
		for wi := g.lo; wi <= g.hi; wi++ {
			w := gw[wi] & mw[wi] &^ nw[wi] // NULL args remove nothing
			if w == 0 {
				continue
			}
			base := wi * 64
			for w != 0 {
				buf = append(buf, s.args.Vals[base+bits.TrailingZeros64(w)])
				w &= w - 1
			}
		}
		sc.buf = buf[:0]
		if len(buf) > 0 {
			sc.vals[i] = s.without(i, buf, mw, sc)
		}
	}
	return errmetric.Eval(s.metric, sc.vals)
}

// rankFast is the LOO pass over an already-built scoring state:
// per-tuple leave-one-out influence without boxed argument evaluation or
// per-row map lookups, in F order (no sort: the readers of Analysis
// order what they return). A tuple moves one group's term: δ is the term
// before less the term after under a sum metric, and ε less the larger
// of the other groups' best term and the term after under a max. It
// polls ctx per ctxCheckRows tuples; the only possible error wraps the
// context error, and the scorer stays valid for a retry.
func rankFast(ctx context.Context, s *Scorer) (*Analysis, error) {
	an := &Analysis{Eps: s.eps, F: s.fbits.Rows(), Scorer: s}

	// rowPos[src] is the suspect position of src's group (-1 outside F;
	// the first listed suspect group wins, so it is written last).
	rowPos := make([]int32, s.nsrc)
	for i := range rowPos {
		rowPos[i] = -1
	}
	for p := len(s.groups) - 1; p >= 0; p-- {
		s.groups[p].bits.ForEach(func(r int) { rowPos[r] = int32(p) })
	}

	// terms[p] is position p's term; top is the best term, at topPos, and
	// next the best of the other positions (floored at 0, as Eval's max).
	byMax := s.metric.Combine() == errmetric.Max
	terms := make([]float64, len(s.base))
	top, topPos, next := 0.0, int32(-1), 0.0
	for p, v := range s.base {
		t := s.metric.Term(v)
		terms[p] = t
		if t > top {
			top, topPos, next = t, int32(p), top
		} else if t > next {
			next = t
		}
	}

	var buf1 [1]float64
	sc, one := s.NewScratch(), make([]uint64, len(rowPos)/64+1) // one: the row left out
	an.Influences = make([]TupleInfluence, 0, len(an.F))
	for i, src := range an.F {
		if i%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("influence: cancelled: %w", err)
			}
		}
		pos := rowPos[src]
		if pos < 0 {
			continue
		}
		// Removing a NULL argument changes nothing: δ is exactly 0.
		var delta float64
		if !s.args.Null.Get(src) {
			buf1[0] = s.args.Vals[src]
			one[src/64] = 1 << (src % 64)
			t := s.metric.Term(s.without(int(pos), buf1[:1], one, sc))
			one[src/64] = 0
			switch {
			case !byMax:
				delta = terms[pos] - t
			case pos == topPos:
				delta = s.eps - max(next, t)
			default:
				delta = s.eps - max(top, t)
			}
		}
		an.Influences = append(an.Influences, TupleInfluence{Row: src, GroupRow: s.suspect[pos], Delta: delta})
	}
	return an, nil
}
