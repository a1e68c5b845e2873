// Package influence implements the Preprocessor stage of the DBWipes
// backend: given the suspect output groups S, their lineage F, and the
// user's error metric ε, it ranks every tuple in F by how much removing
// it alone would reduce ε — leave-one-out (LOO) influence analysis.
//
// Every aggregate state in internal/agg answers "the result without
// these values" (ResultWithoutFloats) — O(1) per tuple for the algebraic
// aggregates (sum/count/avg/stddev/var) — so the whole pass is O(|F|).
package influence

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// ctxCheckRows is the cancellation-check granularity of the LOO loops
// (same batch size as exec's scan loops): ctx is polled once per this
// many analyzed tuples, free on the uncancelled path.
const ctxCheckRows = 4096

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
// as Rank's last parameter, which bench/ compiles against.
type Options struct{}

// Analysis is the result of the preprocessor pass.
type Analysis struct {
	// Eps is ε over the suspect groups before any removal.
	Eps float64
	// Influences holds one entry per lineage tuple, sorted by descending
	// Delta. Read-only, like F: the analyses of a carried chain share
	// both (RankAdvancedCtx).
	Influences []TupleInfluence
	// F is the full lineage of the suspect groups (sorted row ids).
	F []int
	// Scorer is the columnar scoring state the ranking ran through, ready
	// for reuse by downstream predicate scoring. Never nil.
	Scorer *Scorer

	// deltaByRow indexes Influences by row, built lazily on the first
	// DeltaOf call.
	deltaOnce  sync.Once
	deltaByRow map[int]float64
}

// Rank computes ε and per-tuple LOO influence for the ord'th aggregate
// of res over the suspect output rows.
func Rank(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, _ Options) (*Analysis, error) {
	return RankCtx(context.Background(), res, suspect, ord, metric)
}

// RankCtx is Rank under a cancellable context: the O(|F|) LOO loop
// polls ctx per ctxCheckRows tuples and returns an error wrapping the
// context error on cancellation, leaving res untouched. It is NewScorer
// followed by RankWithScorerCtx; a suspect selection or aggregate
// NewScorer refuses is an error here.
func RankCtx(ctx context.Context, res *exec.Result, suspect []int, ord int, metric errmetric.Metric) (*Analysis, error) {
	sc, err := NewScorer(res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	return RankWithScorerCtx(ctx, sc)
}

// RankWithScorer runs the columnar preprocessor pass over an
// already-built scoring state — the entry point the incremental Debug
// path uses after advancing a carried Scorer to a grown table version
// (AdvanceScorer), so the LOO analysis never rebuilds what the carry
// preserved. Rank routes through it too.
func RankWithScorer(sc *Scorer) *Analysis {
	an, _ := RankWithScorerCtx(context.Background(), sc)
	return an
}

// RankWithScorerCtx is RankWithScorer under a cancellable context; the
// only possible error wraps the context error.
func RankWithScorerCtx(ctx context.Context, sc *Scorer) (*Analysis, error) {
	an, err := rankFast(ctx, sc)
	if err != nil {
		return nil, err
	}
	an.Scorer = sc
	return an, nil
}

// RankAdvancedCtx is RankWithScorerCtx for sc = AdvanceScorer(prev.Scorer,
// …) under the aggregate and metric prev was ranked with — the step a
// monitoring loop repeats. A stream mostly grows by adding groups, not
// rows to old ones: when no suspect group's lineage grew since prev
// (Scorer.sameLineage), every aggregate state, hence ε and every δ, is
// what prev computed, and the analysis shares prev's Influences and F
// read-only instead of re-deriving and re-sorting them. One group
// growing moves ε and so every δ: the pass then runs in full. The link
// to prev is this value comparison, made once; the returned analysis
// does not reference prev or its Scorer, so a chain of carried passes
// retains nothing of its history.
func RankAdvancedCtx(ctx context.Context, prev *Analysis, sc *Scorer) (*Analysis, error) {
	if prev != nil && sc.sameLineage(prev.Scorer) {
		return &Analysis{Eps: prev.Eps, Influences: prev.Influences, F: prev.F, Scorer: sc}, nil
	}
	return RankWithScorerCtx(ctx, sc)
}

// sortInfluences orders by descending Delta. Entries are appended in
// ascending row order, so breaking ties on Row reproduces the stable
// order while letting the generic (reflection-free) sort run — stable
// sorting via sort.SliceStable was the dominant cost of the whole LOO
// pass at |F|=100k.
func sortInfluences(infs []TupleInfluence) {
	slices.SortFunc(infs, func(a, b TupleInfluence) int {
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
	})
}

// TopRows returns the rows of the k most influential tuples (Delta > 0
// only). k <= 0 means all positive-influence tuples.
func (a *Analysis) TopRows(k int) []int {
	out := make([]int, 0, len(a.Influences))
	for _, ti := range a.Influences {
		if ti.Delta <= 0 {
			break
		}
		out = append(out, ti.Row)
		if k > 0 && len(out) >= k {
			break
		}
	}
	return out
}

// TopQuantileRows returns the rows whose influence is at least q times
// the maximum positive influence (0 < q <= 1). This is the adaptive
// high-influence set the Dataset Enumerator extends D' with.
func (a *Analysis) TopQuantileRows(q float64) []int {
	if len(a.Influences) == 0 || a.Influences[0].Delta <= 0 {
		return nil
	}
	threshold := a.Influences[0].Delta * q
	var out []int
	for _, ti := range a.Influences {
		if ti.Delta < threshold || ti.Delta <= 0 {
			break
		}
		out = append(out, ti.Row)
	}
	return out
}

// DeltaOf returns the influence of a specific source row (0 outside the
// lineage). The first call builds a row→delta index, so repeated
// lookups are O(1) rather than a linear scan of Influences.
func (a *Analysis) DeltaOf(row int) float64 {
	a.deltaOnce.Do(func() {
		a.deltaByRow = make(map[int]float64, len(a.Influences))
		for _, ti := range a.Influences {
			if _, ok := a.deltaByRow[ti.Row]; !ok {
				a.deltaByRow[ti.Row] = ti.Delta
			}
		}
	})
	return a.deltaByRow[row]
}

// EpsWithoutRows evaluates ε with an arbitrary set of source rows
// removed from their groups, one boxed argument value at a time — the
// reference Scorer.EpsWithoutBits is pinned to. rows may contain rows
// outside the suspect lineage; they are ignored.
func EpsWithoutRows(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, rows []int) (float64, error) {
	if err := checkSelection(res, suspect, ord); err != nil {
		return 0, err
	}
	inRemoval := make(map[int]bool, len(rows))
	for _, r := range rows {
		inRemoval[r] = true
	}
	vals := make([]float64, len(suspect))
	for i, ri := range suspect {
		st := res.Groups[ri].Aggs[ord]
		var removed []int
		for _, src := range res.Groups[ri].Lineage {
			if inRemoval[src] {
				removed = append(removed, src)
			}
		}
		if len(removed) == 0 {
			if v, ok := res.AggFloat(ri, ord); ok {
				vals[i] = v
			} else {
				vals[i] = math.NaN()
			}
			continue
		}
		removedVals := make([]engine.Value, len(removed))
		for j, src := range removed {
			v, err := res.AggArgValue(ord, src)
			if err != nil {
				return 0, err
			}
			removedVals[j] = v
		}
		without := st.ResultWithoutSet(removedVals)
		if without.IsNull() {
			vals[i] = math.NaN()
		} else {
			vals[i] = without.Float()
		}
	}
	return metric.Eval(vals), nil
}
