package influence

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// Scorer is the state predicate scoring runs on: everything a
// Debug run needs to evaluate ε-without-a-set-of-rows, decoded once.
//
//   - each suspect group's lineage as a bitset (plus its occupied word
//     span, so intersection skips the rest of the table),
//   - the aggregate's argument column as a flat []float64 + NULL bitmap
//     (no boxed expression interpretation per tuple),
//   - the live aggregate states (agg.Func.ResultWithoutFloats).
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
	// srcBase is the source table's retention base: carried F words
	// rebase by word-shift when the base moved (whole-segment drops are
	// always word-aligned).
	srcBase int
	// firstRows[i] identifies suspect group i by its first source row —
	// stable across table versions, so AdvanceScorer can verify that a
	// carried F union still describes the same groups even when the
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
}

// NewScorer builds the columnar scoring state for the ord'th aggregate
// of res over the suspect output rows. It fails when the selection is
// out of range or the argument has no float view (exec.AggArgFloats: an
// evaluation error, or a DISTINCT aggregate over string values); there is
// no other scorer to fall back to, so callers report the error.
func NewScorer(res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Scorer, error) {
	s, err := newScorerBase(res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	s.buildGroupBits(res, suspect)
	return s, nil
}

// AdvanceScorer builds the scoring state for res — an incrementally
// advanced result over a grown version of prev's source table — by
// extending prev's carried state by the appended suffix instead of
// rebuilding it. Per-group lineage bitsets and the argument view come
// from the advanced result's carried caches (exec.Advance extends both
// by suffix), the removable aggregate states are the advanced result's
// own, and the F union reuses prev's words: appended rows can only set
// bits from the old length on, so the prefix is a word-level copy and
// only the suffix words are OR-ed. The produced Scorer is bit-identical
// to NewScorer over the same result.
//
// When the source table's retention base moved since prev, the carried
// F union rebases by a word-shift (dropped head segments are whole
// words) as long as the suspect groups' identities survive the id
// translation; group first rows are compared with the drop offset
// applied. When the suspect groups changed since prev (or prev is nil,
// or the rebase precondition fails), the F union is rebuilt from the
// per-group bitsets — still cheap, since those were carried — so
// callers can advance unconditionally.
func AdvanceScorer(prev *Scorer, res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Scorer, error) {
	if prev == nil {
		return NewScorer(res, suspect, ord, metric)
	}
	s, err := newScorerBase(res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	drop := s.srcBase - prev.srcBase
	prevLocal := prev.nsrc - drop
	if drop < 0 || drop%64 != 0 || s.nsrc < prevLocal || !sameSuspectGroups(prev, s, drop) {
		s.buildGroupBits(res, suspect)
		return s, nil
	}
	s.advanceGroupBits(prev, res, suspect, drop)
	return s, nil
}

// sameSuspectGroups reports whether next names the same groups, in the
// same order, as prev — by first source row, the version-stable group
// identity (shifted by the retention drop) — so prev's F union is a
// valid prefix of next's after rebase. A suspect group whose first row
// fell below the retention horizon can never match, so a shifted match
// also proves every suspect lineage survived the drop (a group's first
// row is its earliest lineage row).
func sameSuspectGroups(prev, next *Scorer, drop int) bool {
	if len(prev.suspect) != len(next.suspect) {
		return false
	}
	for i := range prev.suspect {
		if prev.firstRows[i]-drop != next.firstRows[i] {
			return false
		}
	}
	return true
}

// sameLineage reports whether s — advanced from prev within one table
// family — scores exactly the rows prev scored: no retention rebase (row
// ids mean the same), the same groups at the same output rows
// (TupleInfluence.GroupRow), none of them grown, and ε unmoved to the
// bit.
func (s *Scorer) sameLineage(prev *Scorer) bool {
	return s.srcBase == prev.srcBase && slices.Equal(s.suspect, prev.suspect) &&
		sameSuspectGroups(prev, s, 0) && slices.Equal(s.lineLens, prev.lineLens) &&
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

// newScorerBase builds everything except the lineage bitsets: base
// aggregate values, the states, the argument view, and ε.
func newScorerBase(res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Scorer, error) {
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
		s.lineLens[i] = len(res.Groups[ri].Lineage)
		s.states[i] = res.Groups[ri].Aggs[ord]
		if v, ok := res.AggFloat(ri, ord); ok {
			s.base[i] = v
		} else {
			s.base[i] = math.NaN()
		}
	}
	s.eps = metric.Eval(s.base)

	args, err := res.AggArgFloats(ord)
	if err != nil {
		return nil, err
	}
	s.args = args
	return s, nil
}

// advanceGroupBits extends prev's F union by the appended suffix,
// first rebasing it across a retention horizon when drop > 0. The
// advanced result's per-group bitsets share their (shifted) prefix
// with the ones prev unioned (lineage is append-only; exec.Advance
// carries the bitsets by prefix copy — or word-shift — plus suffix
// sets), so the union over the surviving prefix is exactly prev.fbits
// rebased: the word-block concatenation is prefix words ++ suffix
// words, and only words appended rows can touch need OR-ing.
func (s *Scorer) advanceGroupBits(prev *Scorer, res *exec.Result, suspect []int, drop int) {
	s.groups = make([]groupBits, len(suspect))
	if drop > 0 {
		s.fbits = bitset.ShiftDownWords(s.nsrc, prev.fbits.Words(), drop)
	} else {
		s.fbits = bitset.SnapshotWords(s.nsrc, prev.fbits.Words())
	}
	fw := s.fbits.Words()
	lo0 := (prev.nsrc - drop) >> 6
	for i := range suspect {
		b := res.GroupLineageBitsShared(suspect[i])
		lo, hi, ok := b.WordRange()
		s.groups[i] = groupBits{bits: b, lo: lo, hi: hi, empty: !ok}
		gw := b.Words()
		for wi := lo0; wi < len(gw); wi++ {
			fw[wi] |= gw[wi]
		}
	}
}

// buildGroupBits fetches each suspect group's lineage bitset (from the
// result's shared per-group cache — for incrementally advanced results
// the unchanged prefix was carried over rather than rebuilt) and unions
// them into F. The per-group work is independent, so it shards across a
// worker pool when there are enough groups and CPUs to pay for it;
// per-worker partial F bitmaps merge at the end, keeping the result
// identical to the sequential build.
func (s *Scorer) buildGroupBits(res *exec.Result, suspect []int) {
	s.groups = make([]groupBits, len(suspect))
	s.fbits = bitset.New(s.nsrc)

	build := func(i int) *bitset.Bitset {
		b := res.GroupLineageBitsShared(suspect[i])
		lo, hi, ok := b.WordRange()
		s.groups[i] = groupBits{bits: b, lo: lo, hi: hi, empty: !ok}
		return b
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(suspect) {
		workers = len(suspect)
	}
	if workers <= 1 || len(suspect) < 4 {
		for i := range suspect {
			s.fbits.Or(build(i))
		}
		return
	}

	partial := make([]*bitset.Bitset, workers)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := bitset.New(s.nsrc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(suspect) {
					break
				}
				f.Or(build(i))
			}
			partial[w] = f
		}(w)
	}
	wg.Wait()
	for _, f := range partial {
		s.fbits.Or(f)
	}
}

// Eps returns ε over the suspect groups before any removal.
func (s *Scorer) Eps() float64 { return s.eps }

// FBits returns the suspect groups' combined lineage (F) as a bitset.
// Shared and read-only.
func (s *Scorer) FBits() *bitset.Bitset { return s.fbits }

// NewScratch returns a fresh per-goroutine scratch.
func (s *Scorer) NewScratch() *Scratch {
	return &Scratch{vals: make([]float64, len(s.suspect)), buf: make([]float64, 0, 256)}
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
		if len(buf) == 0 {
			continue
		}
		if v, ok := s.states[i].ResultWithoutFloats(buf); ok {
			sc.vals[i] = v
		} else {
			sc.vals[i] = math.NaN()
		}
	}
	return s.metric.Eval(sc.vals)
}

// rankFast is the LOO pass: per-tuple leave-one-out influence without
// boxed argument evaluation or per-row map lookups, in F order (no sort:
// the readers of Analysis order what they return). It polls ctx per
// ctxCheckRows tuples; the only possible error wraps the context error,
// and the scorer stays valid for a retry.
func rankFast(ctx context.Context, s *Scorer) (*Analysis, error) {
	an := &Analysis{Eps: s.eps, F: s.fbits.Rows()}

	// rowPos[src] is the suspect position of src's group (-1 outside F;
	// the first listed suspect group wins).
	rowPos := make([]int32, s.nsrc)
	for i := range rowPos {
		rowPos[i] = -1
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.empty {
			continue
		}
		pos := int32(gi)
		g.bits.ForEach(func(r int) {
			if rowPos[r] < 0 {
				rowPos[r] = pos
			}
		})
	}

	scratch := append([]float64(nil), s.base...)
	var buf1 [1]float64
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
		gi := s.suspect[pos]
		var delta float64
		if s.args.Null.Get(src) {
			// Removing a NULL argument changes nothing: δ is exactly 0.
			delta = 0
		} else {
			buf1[0] = s.args.Vals[src]
			old := scratch[pos]
			if v, ok := s.states[pos].ResultWithoutFloats(buf1[:1]); ok {
				scratch[pos] = v
			} else {
				scratch[pos] = math.NaN()
			}
			delta = s.eps - s.metric.Eval(scratch)
			scratch[pos] = old
		}
		an.Influences = append(an.Influences, TupleInfluence{Row: src, GroupRow: gi, Delta: delta})
	}
	return an, nil
}
