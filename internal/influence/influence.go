// Package influence implements the Preprocessor stage of the DBWipes
// backend: given the suspect output groups S, their lineage F, and the
// user's error metric ε, it ranks every tuple in F by how much removing
// it alone would reduce ε — leave-one-out (LOO) influence analysis.
//
// Every aggregate state in internal/agg answers "the result without
// these values" (ResultWithoutFloats) — O(1) per tuple for sum, count,
// avg, stddev and var, and for min and max unless the tuple is the last
// copy of the extremum, when they recompute over the group's survivors —
// and ε moves by that group's term, so the whole pass is O(|F|) plus one
// group scan per tuple that removes the last copy of a min or max.
package influence

import (
	"context"
	"errors"
	"iter"
	"math"
	"slices"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// ctxCheckRows is the cancellation-check granularity of the LOO loops
// (same batch size as exec's scan loops): ctx is polled once per this
// many analyzed tuples, free on the uncancelled path.
const ctxCheckRows = 4096

// errDistinctStrings is EpsWithoutRows' refusal of what NewScorer
// refuses (exec's error of the same name).
var errDistinctStrings = errors.New("influence: a DISTINCT aggregate over string values has no float argument to remove")

// TupleInfluence records one tuple's leave-one-out effect on ε.
type TupleInfluence struct {
	// Row is the source row id.
	Row int
	// GroupRow is the output row (group) the tuple belongs to.
	GroupRow int
	// Delta is ε(S) − ε(S without this tuple): positive means removing
	// the tuple reduces the error, i.e. the tuple is culpable.
	Delta float64
}

// Options is empty — every lineage tuple is analyzed — and remains only
// as Rank's last parameter. bench/ only; goes with ROADMAP item 14.
type Options struct{}

// Analysis is the result of the preprocessor pass.
type Analysis struct {
	// Eps is ε over the suspect groups before any removal.
	Eps float64
	// Influences holds one entry per lineage tuple, in F (row) order:
	// nothing is sorted until a reader asks for the top (TopQuantileRows,
	// TopRows), and then only what it returns. Read-only, like F: the
	// analyses of a carried chain share both (RankAdvancedCtx).
	Influences []TupleInfluence
	// F is the full lineage of the suspect groups (sorted row ids).
	F []int
	// Scorer is the columnar scoring state the ranking ran through, ready
	// for reuse by downstream predicate scoring. Never nil.
	Scorer *Scorer
}

// Rank is RankCtx without a context. bench/ only; goes with ROADMAP
// item 14.
func Rank(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, _ Options) (*Analysis, error) {
	return RankCtx(context.Background(), res, suspect, ord, metric)
}

// RankCtx computes ε and per-tuple LOO influence for the ord'th
// aggregate of res over the suspect output rows. The LOO loop — O(|F|),
// plus one group scan per tuple that removes the last copy of a min or
// max — polls ctx per ctxCheckRows tuples and returns an error wrapping the
// context error on cancellation, leaving res untouched. It is NewScorer
// followed by rankFast; a suspect selection or aggregate NewScorer
// refuses is an error here. res's provenance is built under ctx.
func RankCtx(ctx context.Context, res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Analysis, error) {
	if _, err := res.Provenance(ctx); err != nil {
		return nil, err
	}
	sc, err := NewScorer(res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	return rankFast(ctx, sc)
}

// RankAdvancedCtx is rankFast for sc = NewScorer over an
// advanced result (exec.AdvanceCtx), under the aggregate and metric prev
// was ranked with — the step a monitoring loop repeats. A stream mostly grows by adding groups, not
// rows to old ones: when no suspect group's lineage grew since prev
// (Scorer.sameLineage), every aggregate state, hence ε and every δ, is
// what prev computed, and the analysis shares prev's Influences and F
// read-only instead of re-deriving them. One group
// growing moves ε and so every δ: the pass then runs in full. The link
// to prev is this value comparison, made once; the returned analysis
// does not reference prev or its Scorer, so a chain of carried passes
// retains nothing of its history.
func RankAdvancedCtx(ctx context.Context, prev *Analysis, sc *Scorer) (*Analysis, error) {
	if prev != nil && sc.sameLineage(prev.Scorer) {
		return &Analysis{Eps: prev.Eps, Influences: prev.Influences, F: prev.F, Scorer: sc}, nil
	}
	return rankFast(ctx, sc)
}

// byInfluence orders by descending Delta, ties by Row — a total order on
// entries without a NaN Delta, so a sort by it does not depend on the
// sort algorithm.
func byInfluence(a, b TupleInfluence) int {
	switch {
	case a.Delta > b.Delta:
		return -1
	case a.Delta < b.Delta:
		return 1
	case a.Row < b.Row:
		return -1
	case a.Row > b.Row:
		return 1
	default:
		return 0
	}
}

// topRows returns the rows whose influence is at least floor and
// positive, most influential first (byInfluence). A NaN Delta is never
// selected. Only the selected entries are sorted, by their index into
// Influences.
func (a *Analysis) topRows(floor float64) []int {
	var idx []int32
	for i, ti := range a.Influences {
		if ti.Delta >= floor && ti.Delta > 0 {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(i, j int32) int { return byInfluence(a.Influences[i], a.Influences[j]) })
	rows := make([]int, len(idx))
	for k, i := range idx {
		rows[k] = a.Influences[i].Row
	}
	return rows
}

// TopRows returns the rows of the k most influential tuples (Delta > 0
// only), most influential first. k <= 0 means all positive-influence
// tuples.
func (a *Analysis) TopRows(k int) []int {
	rows := a.topRows(0)
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TopQuantileRows returns the rows whose influence is at least q times
// the maximum positive influence (0 < q <= 1), most influential first
// (descending Delta, ties by Row); nil when no influence is positive. A
// NaN Delta is neither the maximum nor selected. This is the adaptive
// high-influence set the Dataset Enumerator extends D' with.
func (a *Analysis) TopQuantileRows(q float64) []int {
	top := math.Inf(-1)
	for _, ti := range a.Influences {
		if ti.Delta > top {
			top = ti.Delta
		}
	}
	if top <= 0 {
		return nil
	}
	return a.topRows(top * q)
}

// EpsWithoutRows evaluates ε with an arbitrary set of source rows
// removed from their groups, one argument value at a time — the
// reference Scorer.EpsWithoutBits is pinned to. rows may contain rows
// outside the suspect lineage; they are ignored. It refuses a DISTINCT
// aggregate's string argument, as NewScorer does: the state keys it by
// the string, which no float removes.
func EpsWithoutRows(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, rows []int) (float64, error) {
	if err := checkSelection(res, suspect, ord); err != nil {
		return 0, err
	}
	prov, err := res.Provenance(context.Background())
	if err != nil {
		return 0, err
	}
	inRemoval := make(map[int]bool, len(rows))
	for _, r := range rows {
		inRemoval[r] = true
	}
	vals := make([]float64, len(suspect))
	for i, ri := range suspect {
		g, lineage := res.Groups[ri], prov.Rows(ri)
		_, distinct := g.Aggs[ord].(*agg.Distinct)
		var argErr error
		// each yields the non-NULL argument values of g's lineage rows in
		// or out of the removal, until an argument fails to evaluate.
		each := func(removed bool) iter.Seq[float64] {
			return func(yield func(float64) bool) {
				for _, src := range lineage {
					if inRemoval[src] != removed {
						continue
					}
					v, err := res.AggArgValue(ord, src)
					if err == nil && distinct && v.T == engine.TString {
						err = errDistinctStrings
					}
					if err != nil {
						argErr = err
						return
					}
					if !v.IsNull() && !yield(v.Float()) {
						return
					}
				}
			}
		}
		removed := slices.Collect(each(true))
		without, ok := g.Aggs[ord].ResultWithoutFloats(removed, each(false))
		if argErr != nil {
			return 0, argErr
		}
		vals[i] = math.NaN()
		if ok {
			vals[i] = without
		}
	}
	return errmetric.Eval(metric, vals), nil
}
