// Package ranker implements the Predicate Ranker: the final backend
// stage that scores each candidate predicate. Per the paper, the score
// "increases with improvement in the error metric, and the accuracy of
// the tree at differentiating Dᶜᵢ from F − Dᶜᵢ, and decreases by the
// complexity (number of terms in) the predicate."
package ranker

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/par"
	"repro/internal/predicate"
)

// Candidate is a predicate awaiting scoring, tagged with its origin
// (which learner and candidate dataset produced it) for explainability.
type Candidate struct {
	Pred   predicate.Predicate
	Origin string
	// Target is the candidate dataset Dᶜᵢ this predicate was learned to
	// describe, as a bitset over source rows; accuracy is measured
	// against it. Nil or empty skips the accuracy terms. A target carried
	// from a shorter table version is widened to Res.Source on ranking.
	Target *bitset.Bitset
}

// The mixing coefficients of the score terms: error repair and
// description accuracy balanced, with a mild parsimony pressure. None is
// an option — nothing outside tests ever set one; Context.DisableExcess
// is the quality table's ablation of the fourth.
const (
	// weightErr weighs the relative error-metric improvement (0..1).
	weightErr = 0.45
	// weightAcc weighs the F1 of the predicate at separating the candidate
	// dataset from the rest of the lineage.
	weightAcc = 0.45
	// weightComplexity is the penalty per clause beyond the first.
	weightComplexity = 0.04
	// weightExcess penalizes indiscriminate predicates: it scales with the
	// fraction of matched lineage tuples that are NOT high-influence
	// ("culpable"). Surgical predicates that remove only culpable tuples
	// pay nothing; "delete everything" predicates pay the full weight.
	// Without it (internal/core's quality table, row no-excess) the
	// planted distractor's first answer falls from F1 0.931 to 0.866,
	// two-causes' best of three from 0.627 to 0.579, and intel-50k-seed3's
	// without examples from 0.718 to 0.711.
	weightExcess = 0.2
)

// Context carries everything scoring needs. Candidates match through
// the source family's one clause-mask index (predicate.Shared), each
// mask asked for at Res.Source's version, so a retention that runs
// during the pass cannot hand the scorer another row-id window.
type Context struct {
	// Ctx cancels a ranking pass: scoring polls it before every
	// candidate, and RankAllCarry/Rescore return an error wrapping the
	// context error instead of a truncated ranking. Nil means
	// context.Background (never cancelled).
	Ctx     context.Context
	Res     *exec.Result
	Suspect []int
	Ord     int // aggregate ordinal
	Metric  errmetric.Metric
	// F is the suspect groups' lineage.
	F []int
	// Population is the learning population: F plus any sampled contrast
	// tuples. Accuracy and tautology checks run over it. Nil means F.
	Population []int
	// Culpable marks the high-influence lineage tuples (from the
	// preprocessor's leave-one-out analysis) as a bitset over
	// Res.Source's rows; the excess term uses it. Nil disables the
	// excess term.
	Culpable *bitset.Bitset
	// Eps is ε before any removal.
	Eps float64
	// DisablePrune turns off greedy clause pruning and DisableExcess the
	// excess term: the ablations internal/core's quality table keeps a
	// row for.
	DisablePrune, DisableExcess bool
	// Scorer is the scoring state every candidate is evaluated through.
	// Left nil, the first ranking call builds one; a selection or
	// aggregate influence.NewScorer refuses is that call's error.
	Scorer *influence.Scorer

	// prepared lazily by prepare(): the source family's clause-mask
	// index (predicate.Shared, asked for Res.Source's masks) and bitset
	// forms of Population and F, shared read-only across scoring
	// goroutines.
	prepOnce sync.Once
	prepErr  error
	ix       *predicate.Index
	popBits  *bitset.Bitset
	fBits    *bitset.Bitset
	popCount int
}

// prepare builds the shared read-only scoring state exactly once. Like
// influence.Scorer, the prepared Context is a snapshot of Res.Source at
// prepare time: appending rows to the source table while reusing the
// same Context is not supported (build a fresh Context after the table
// changes — scoring a grown table against stale lineage would be wrong
// even if the bitset sizes happened to line up). The error is
// influence.NewScorer's, when the context came without a Scorer.
func (ctx *Context) prepare() error {
	ctx.prepOnce.Do(func() {
		if ctx.Scorer == nil {
			if ctx.Scorer, ctx.prepErr = influence.NewScorer(ctx.Res, ctx.Suspect, ctx.Ord, ctx.Metric); ctx.prepErr != nil {
				return
			}
		}
		// The family's index: a carried candidate's masks extend by the
		// appended rows only, and a clean's WHERE NOT re-run finds the
		// winner's clauses already built.
		ctx.ix = predicate.Shared(ctx.Res.Source)
		n := ctx.Res.Source.NumRows()
		pop := ctx.Population
		if pop == nil {
			pop = ctx.F
		}
		ctx.popBits = bitset.FromRows(n, pop)
		ctx.popCount = ctx.popBits.Count()
		ctx.fBits = bitset.FromRows(n, ctx.F)
	})
	return ctx.prepErr
}

// scoreEnv is one goroutine's reusable scoring buffers.
type scoreEnv struct {
	scratch *influence.Scratch
	pb, mb  *bitset.Bitset
}

func (ctx *Context) newEnv() *scoreEnv {
	n := ctx.Res.Source.NumRows()
	return &scoreEnv{
		scratch: ctx.Scorer.NewScratch(),
		pb:      bitset.New(n),
		mb:      bitset.New(n),
	}
}

// Scored is a fully scored explanation.
type Scored struct {
	Pred   predicate.Predicate
	Origin string
	// Provenance records how this entry reached the ranking: "fresh"
	// (produced by the learners in this pass) or "carried" (rescored
	// from a previous pass's RankerState by an incremental Debug).
	Provenance string
	// ErrImprovement is (ε − ε_after)/ε, clamped to [0, 1] (0 when ε=0).
	ErrImprovement float64
	// EpsAfter is ε after removing the predicate's tuples.
	EpsAfter float64
	// Precision/Recall/F1 measure how well the predicate separates its
	// target candidate dataset from the rest of F.
	Precision, Recall, F1 float64
	// Complexity is the number of clauses.
	Complexity int
	// NumTuples is how many lineage tuples the predicate matches.
	NumTuples int
	// CulpableFrac is the fraction of matched lineage tuples that are
	// high-influence (1 when the context has no culpability data).
	CulpableFrac float64
	// Score is the final ranking score.
	Score float64
}

// String renders a one-line summary.
func (s Scored) String() string {
	return fmt.Sprintf("%.3f  %s  (Δε=%.0f%%, F1=%.2f, %d tuples, %s)",
		s.Score, s.Pred, 100*s.ErrImprovement, s.F1, s.NumTuples, s.Origin)
}

// score evaluates one candidate of a prepared context using env's
// reusable buffers: clause-mask ANDs for matching, word-level
// intersection counting for accuracy/culpability, and
// Scorer.EpsWithoutBits for the counterfactual ε. ok is false when the
// predicate matches no lineage tuples (vacuous) or matches all of them
// (tautological). Steady state (clause masks warm, target bits
// populated) it allocates nothing for the algebraic aggregates.
func score(c Candidate, ctx *Context, env *scoreEnv) (Scored, bool) {
	pb := ctx.ix.MatchInto(ctx.Res.Source, c.Pred, ctx.popBits, env.pb)
	nPop := pb.Count()
	// Vacuous and tautological predicates explain nothing.
	if nPop == 0 || nPop == ctx.popCount {
		return Scored{}, false
	}
	// Match against the FULL lineage, not pb ∩ F: the Population may be
	// a capped learner sample (core's MaxLearnRows) that misses lineage
	// rows, and ε must reflect removing every matched lineage tuple.
	mb := ctx.ix.MatchInto(ctx.Res.Source, c.Pred, ctx.fBits, env.mb)
	nMatched := mb.Count()
	if nMatched == 0 {
		return Scored{}, false
	}
	epsAfter := ctx.Scorer.EpsWithoutBits(mb, env.scratch)
	if math.IsNaN(epsAfter) {
		epsAfter = 0
	}
	s := Scored{
		Pred:       c.Pred,
		Origin:     c.Origin,
		EpsAfter:   epsAfter,
		Complexity: c.Pred.Len(),
		NumTuples:  nMatched,
	}
	if ctx.Eps > 0 {
		s.ErrImprovement = (ctx.Eps - epsAfter) / ctx.Eps
		if s.ErrImprovement < 0 {
			s.ErrImprovement = 0
		}
		if s.ErrImprovement > 1 {
			s.ErrImprovement = 1
		}
	}
	if nTarget := c.targetCount(); nTarget > 0 {
		hit := bitset.AndCount(pb, c.Target)
		s.Precision = float64(hit) / float64(nPop)
		s.Recall = float64(hit) / float64(nTarget)
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
	}
	s.CulpableFrac = 1
	if ctx.Culpable != nil {
		hit := bitset.AndCount(mb, ctx.Culpable)
		s.CulpableFrac = float64(hit) / float64(nMatched)
	}
	s.Score = finalScore(&s, ctx.DisableExcess)
	return s, true
}

// finalScore mixes the terms of a scored predicate.
func finalScore(s *Scored, disableExcess bool) float64 {
	comp := float64(max(s.Complexity-1, 0))
	score := weightErr*s.ErrImprovement + weightAcc*s.F1 - weightComplexity*comp
	if !disableExcess {
		score -= weightExcess * (1 - s.CulpableFrac)
	}
	return score
}

// targetCount is |Target| (0 without one).
func (c Candidate) targetCount() int {
	if c.Target == nil {
		return 0
	}
	return c.Target.Count()
}

// prune greedily drops clauses that do not hurt the score: subgroup
// rules and deep tree paths often carry incidental conjuncts (an
// arbitrary timestamp bound, a humidity range that merely correlates),
// and the paper wants *compact* predicates. Each round re-scores every
// one-clause-removed variant and keeps the best while it is at least as
// good as the current predicate.
func prune(c Candidate, sc Scored, ctx *Context, env *scoreEnv) (Candidate, Scored) {
	for len(c.Pred.Clauses) > 1 {
		improved := false
		for drop := range c.Pred.Clauses {
			var variant Candidate
			variant.Origin = c.Origin
			variant.Target = c.Target
			variant.Pred.Clauses = make([]predicate.Clause, 0, len(c.Pred.Clauses)-1)
			variant.Pred.Clauses = append(variant.Pred.Clauses, c.Pred.Clauses[:drop]...)
			variant.Pred.Clauses = append(variant.Pred.Clauses, c.Pred.Clauses[drop+1:]...)
			vs, ok := score(variant, ctx, env)
			if ok && vs.Score >= sc.Score {
				c, sc = variant, vs
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return c, sc
}

// ahead orders answers: the higher score, then fewer clauses, then
// fewer tuples.
func ahead(a, b *Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Complexity != b.Complexity {
		return a.Complexity < b.Complexity
	}
	return a.NumTuples < b.NumTuples
}

// rowSet identifies the lineage rows an answer matches: their count and
// a hash of the words of their bitset over the source rows. Two answers
// with one rowSet remove the same tuples from F, however they are
// spelled (v > t and v >= t' on a column with no value between).
type rowSet struct {
	n    int
	hash uint64
}

// rowsOf matches c over F into env.mb (which prune leaves holding a
// rejected variant's rows) and returns its rowSet.
func rowsOf(c Candidate, ctx *Context, env *scoreEnv) rowSet {
	mb := ctx.ix.MatchInto(ctx.Res.Source, c.Pred, ctx.fBits, env.mb)
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range mb.Words() {
		h = bits.RotateLeft64(h^w, 29) * 0xbf58476d1ce4e5b9
	}
	return rowSet{n: mb.Count(), hash: h}
}

// answer is one survivor of a ranking pass with the target it was
// learned to describe, which a RankerState carries to the next pass.
type answer struct {
	Scored
	target *bitset.Bitset
}

// RankAllCarry scores every candidate, prunes incidental clauses, keeps
// one answer per set of lineage rows matched (the higher score, then
// fewer clauses, then the first seen), and returns the survivors sorted
// by descending score (ties: fewer clauses, then fewer tuples), with
// their carryable state: the returned RankerState holds every answer
// with its frozen target set and score, ready for an incremental Debug
// over a grown table to rescore without re-running the learners.
//
// Scoring and pruning fan out through par.Do: once the context is
// prepared, the scoring inputs (clause masks, lineage bitsets, flat
// argument columns) are read-only shared state, so each candidate is
// independent. Results are collected by slot index, keeping the final
// ranking deterministic. An error is ctx.Ctx's cancellation, a
// chunk-load failure, or influence.NewScorer's refusal of the context
// (out-of-range suspect, an aggregate it cannot score); nothing is
// published on error.
func RankAllCarry(cands []Candidate, ctx *Context) ([]Scored, *RankerState, error) {
	answers, _, err := rankCore(cands, ctx, "fresh")
	if err != nil {
		return nil, nil, err
	}
	return scoredOf(answers), &RankerState{answers: answers}, nil
}

// rankCore is the shared ranking pass behind RankAllCarry and
// RankerState.Rescore: par.Do scoring + pruning, one answer per row set
// in F, sort. It additionally returns, aligned with cands, each
// candidate's raw (pre-prune) score — NaN for candidates that scored
// vacuous or tautological — which Rescore turns into the drift signal.
// On an out-of-core source a chunk-load failure — on this goroutine or
// in a par.Do helper extending a clause mask, which Do re-raises here
// once its helpers are done — comes back as *engine.SegmentLoadError.
func rankCore(cands []Candidate, ctx *Context, provenance string) (_ []answer, _ []float64, err error) {
	defer engine.CatchSegmentLoad(&err)
	cctx := ctx.Ctx
	if cctx == nil {
		cctx = context.Background()
	}
	if err := ctx.prepare(); err != nil {
		return nil, nil, err
	}
	// Targets carried from a shorter table version widen to this one
	// (appended rows are outside every carried target).
	for i := range cands {
		if t := cands[i].Target; t != nil && t.Len() != ctx.Res.Source.NumRows() {
			cands[i].Target = bitset.SnapshotWords(ctx.Res.Source.NumRows(), t.Words())
		}
	}

	type slot struct {
		a    answer
		rows rowSet
		ok   bool
	}
	slots := make([]slot, len(cands))
	raw := make([]float64, len(cands))
	envs := make([]*scoreEnv, par.Width(len(cands))) // one per worker, built on first use
	par.Do(len(cands), func(w, i int) {
		// Cancellation check per candidate: the rest are skipped unscored
		// and the pass returns the context error below.
		raw[i] = math.NaN()
		if cctx.Err() != nil {
			return
		}
		if envs[w] == nil {
			envs[w] = ctx.newEnv()
		}
		c := cands[i]
		sc, ok := score(c, ctx, envs[w])
		if !ok {
			return
		}
		raw[i] = sc.Score
		if !ctx.DisablePrune {
			c, sc = prune(c, sc, ctx, envs[w])
		}
		slots[i] = slot{a: answer{Scored: sc, target: c.Target}, rows: rowsOf(c, ctx, envs[w]), ok: true}
	})
	if err := cctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("ranker: cancelled: %w", err)
	}

	// One answer per row set: within one, ahead decides on score and
	// clauses alone (the tuple counts are equal), and a tie keeps the
	// first seen.
	var out []answer
	at := make(map[rowSet]int)
	for i := range slots {
		if !slots[i].ok {
			continue
		}
		a := slots[i].a
		a.Provenance = provenance
		if j, seen := at[slots[i].rows]; !seen {
			at[slots[i].rows] = len(out)
			out = append(out, a)
		} else if ahead(&a.Scored, &out[j].Scored) {
			out[j] = a
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return ahead(&out[i].Scored, &out[j].Scored) })
	return out, raw, nil
}

// scoredOf is the ranked list of a pass's answers.
func scoredOf(answers []answer) []Scored {
	out := make([]Scored, len(answers))
	for i := range answers {
		out[i] = answers[i].Scored
	}
	return out
}

// RankerState carries one ranking pass's answers — predicates, their
// frozen target sets, and the scores they were reported with — so a
// following incremental Debug over a grown table can rescore exactly
// these candidates against the advanced scoring state instead of
// re-running the learners. The state is immutable; Rescore returns a
// fresh state for the next step of the chain.
type RankerState struct {
	answers []answer // the full ranked list (pre-truncation)
}

// Len returns the number of carried candidates.
func (st *RankerState) Len() int {
	if st == nil {
		return 0
	}
	return len(st.answers)
}

// candidates are the carried answers as fresh candidates: rankCore
// widens their targets to its table version without touching st.
func (st *RankerState) candidates() []Candidate {
	cands := make([]Candidate, len(st.answers))
	for i, a := range st.answers {
		cands[i] = Candidate{Pred: a.Pred, Origin: a.Origin, Target: a.target}
	}
	return cands
}

// Rescore scores the carried candidates against ctx — typically the
// advanced context of a grown table — through the same par.Do scoring,
// pruning and dedup mechanics as RankAllCarry, and reports how far
// the carried predicates' raw scores moved since the previous pass:
// drift is the largest |new−old| over the carried candidates, +Inf when
// a previously-ranked predicate scored vacuous or tautological under
// the new data (its anomaly dissolved — a material change no score
// delta can bound). The caller compares drift against its threshold to
// decide whether the carried ranking stands or the learners must run
// again. A cancellation (ctx.Ctx) returns an error and leaves st
// untouched and reusable.
func (st *RankerState) Rescore(ctx *Context) ([]Scored, *RankerState, float64, error) {
	answers, raw, err := rankCore(st.candidates(), ctx, "carried")
	if err != nil {
		return nil, nil, 0, err
	}
	drift := 0.0
	for i := range raw {
		if math.IsNaN(raw[i]) {
			drift = math.Inf(1)
			break
		}
		if d := math.Abs(raw[i] - st.answers[i].Score); d > drift {
			drift = d
		}
	}
	return scoredOf(answers), &RankerState{answers: answers}, drift, nil
}
