// Package baseline implements the comparison points the paper argues
// against (§1 and §4), so the evaluation can quantify what ranked
// provenance buys:
//
//   - FullProvenance — classic fine-grained provenance: "return all of
//     F". Perfect recall, terrible precision, zero description.
//   - TopKInfluence — rank individual tuples by leave-one-out influence
//     and return the top k (the causality-style per-tuple relevance of
//     Meliou et al., adapted to aggregates). Good precision, no
//     human-readable description, recall limited by k.
//   - Exhaustive — brute-force predicate search over 1- and 2-clause
//     conjunctions, scored purely by error improvement per removed
//     tuple. The quality ceiling for short predicates, at a cost that
//     grows quadratically in the selector vocabulary.
package baseline

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/influence"
	"repro/internal/predicate"
	"repro/internal/subgroup"
)

// FullProvenance returns the complete lineage of the suspect groups —
// what a traditional provenance system hands the user. A failed
// provenance build (a chunk-load failure, a cancelled ctx) is its error.
func FullProvenance(ctx context.Context, res *exec.Result, suspect []int) ([]int, error) {
	prov, err := res.Provenance(ctx)
	if err != nil {
		return nil, err
	}
	return prov.Lineage(suspect), nil
}

// TopKInfluence returns the k most error-influential tuples.
func TopKInfluence(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, k int) ([]int, error) {
	an, err := influence.RankCtx(context.TODO(), res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	return an.TopRows(k), nil
}

// ExhaustiveOptions tunes the brute-force search.
type ExhaustiveOptions struct {
	// MaxClauses is 1 or 2 (default 2).
	MaxClauses int
	// MinCoverage discards predicates matching fewer lineage rows
	// (default 5).
	MinCoverage int
	// TopN is how many predicates to return (default 10).
	TopN int
	// Feature overrides featurization.
	Feature feature.Options
}

func (o *ExhaustiveOptions) defaults() {
	if o.MaxClauses <= 0 || o.MaxClauses > 2 {
		o.MaxClauses = 2
	}
	if o.MinCoverage <= 0 {
		o.MinCoverage = 5
	}
	if o.TopN <= 0 {
		o.TopN = 10
	}
}

// ExhaustiveResult is one scored predicate from the brute-force search.
type ExhaustiveResult struct {
	Pred           predicate.Predicate
	ErrImprovement float64
	NumTuples      int
	// Evaluated counts how many candidate predicates were scored — the
	// cost the smarter pipeline avoids.
	Evaluated int
}

// Exhaustive enumerates every 1-clause (and optionally 2-clause)
// conjunction over the attribute space and ranks them by error
// improvement, breaking ties toward fewer removed tuples (prefer
// surgical fixes). It reuses the subgroup package's selector vocabulary
// so the comparison with CN2-SD is apples-to-apples.
func Exhaustive(res *exec.Result, suspect []int, ord int, metric errmetric.Metric, opt ExhaustiveOptions) ([]ExhaustiveResult, error) {
	opt.defaults()
	an, err := influence.RankCtx(context.TODO(), res, suspect, ord, metric)
	if err != nil {
		return nil, err
	}
	if an.Eps == 0 {
		return nil, nil
	}
	fopt := opt.Feature
	fopt.Rows = an.F
	sp := feature.NewSpace(res.Source, fopt).Discretize()
	selectors := subgroup.Selectors(sp)

	type scoredPred struct {
		pred    predicate.Predicate
		imp     float64
		matched int
	}
	var all []scoredPred
	evaluated := 0

	// Candidates are scored as ranker.score scores them: clause-mask ANDs
	// over the lineage bitset and the scorer's counterfactual ε.
	// influence.EpsWithoutRows over boxed matches is the oracle
	// (TestExhaustiveMatchesBoxedScoring). Each selector's mask is read
	// once from the family's index and held for every pair it joins.
	ix := predicate.Shared(res.Source)
	fBits, scratch := an.Scorer.FBits(), an.Scorer.NewScratch()
	mb := bitset.New(res.Source.NumRows())
	score := func(p predicate.Predicate, masks ...*bitset.Bitset) {
		evaluated++
		mb.CopyFrom(fBits)
		for _, m := range masks {
			mb.And(m)
		}
		matched := mb.Count()
		if matched < opt.MinCoverage || matched == len(an.F) {
			return
		}
		imp := (an.Eps - an.Scorer.EpsWithoutBits(mb, scratch)) / an.Eps
		if !(imp > 0) { // a NaN ε (every suspect group emptied) improves nothing
			return
		}
		all = append(all, scoredPred{pred: p, imp: imp, matched: matched})
	}

	preds1 := make([]predicate.Predicate, 0, len(selectors))
	masks1 := make([]*bitset.Bitset, 0, len(selectors))
	for _, sel := range selectors {
		c := predicate.Clause{Col: sp.Attrs[sel.AttrIdx].Name, Op: sel.Op, Val: sel.Val}
		p := predicate.Predicate{Clauses: []predicate.Clause{c}}
		preds1, masks1 = append(preds1, p), append(masks1, ix.Mask(res.Source, c))
		score(p, masks1[len(masks1)-1])
	}
	if opt.MaxClauses >= 2 {
		for i := 0; i < len(selectors); i++ {
			for j := i + 1; j < len(selectors); j++ {
				if selectors[i].AttrIdx == selectors[j].AttrIdx && selectors[i].Op == selectors[j].Op {
					continue // same-direction bounds on one attr are redundant
				}
				p := preds1[i].And(preds1[j].Clauses[0])
				simplified, ok := p.Simplify()
				if !ok {
					continue
				}
				score(simplified, masks1[i], masks1[j])
			}
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].imp != all[b].imp {
			return all[a].imp > all[b].imp
		}
		return all[a].matched < all[b].matched
	})
	if len(all) > opt.TopN {
		all = all[:opt.TopN]
	}
	out := make([]ExhaustiveResult, len(all))
	for i, s := range all {
		out[i] = ExhaustiveResult{Pred: s.pred, ErrImprovement: s.imp, NumTuples: s.matched, Evaluated: evaluated}
	}
	return out, nil
}
