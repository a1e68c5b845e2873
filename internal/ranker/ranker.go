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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
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
	// Without it (internal/core's quality table, row no-excess) the first
	// answer on the planted 2- and 3-clause tables is the whole lineage
	// (F1 0.070 and 0.117 against 0.989 and 0.941).
	weightExcess = 0.2
)

// Context carries everything scoring needs.
type Context struct {
	// Ctx cancels a ranking pass: the worker pool polls it before every
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
	// Index caches vectorized per-clause match masks over Res.Source;
	// built automatically when nil.
	Index *predicate.Index

	// prepared lazily by prepare(): bitset forms of Population and F,
	// shared read-only across scoring goroutines.
	prepOnce sync.Once
	prepErr  error
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
		if ctx.Index == nil {
			// Per-context index, collected with the ranking pass.
			// Callers chaining incremental Debugs (core.DebugAdvance)
			// pass in a longer-lived index instead, so carried
			// candidates' masks extend by suffix across batches. The
			// family-shared predicate.Shared index is deliberately NOT
			// used here: candidate thresholds are data-dependent and
			// churn per pass, and that cache never evicts.
			ctx.Index = predicate.NewIndex(ctx.Res.Source)
		}
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

// Score evaluates one candidate. ok is false when the predicate matches
// no lineage tuples (vacuous) or matches all of them (tautological) —
// or when the context cannot be scored at all (see Context.Scorer).
func Score(c Candidate, ctx *Context) (Scored, bool) {
	if ctx.prepare() != nil {
		return Scored{}, false
	}
	return score(c, ctx, ctx.newEnv())
}

// score evaluates one candidate of a prepared context using env's
// reusable buffers: clause-mask ANDs for matching, word-level
// intersection counting for accuracy/culpability, and
// Scorer.EpsWithoutBits for the counterfactual ε. Steady state (clause
// masks warm, target bits populated) it allocates nothing for the
// algebraic aggregates.
func score(c Candidate, ctx *Context, env *scoreEnv) (Scored, bool) {
	pb := ctx.Index.MatchInto(c.Pred, ctx.popBits, env.pb)
	nPop := pb.Count()
	// Vacuous and tautological predicates explain nothing.
	if nPop == 0 || nPop == ctx.popCount {
		return Scored{}, false
	}
	// Match against the FULL lineage, not pb ∩ F: the Population may be
	// a capped learner sample (core's MaxLearnRows) that misses lineage
	// rows, and ε must reflect removing every matched lineage tuple.
	mb := ctx.Index.MatchInto(c.Pred, ctx.fBits, env.mb)
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

// Prune greedily drops clauses that do not hurt the score: subgroup
// rules and deep tree paths often carry incidental conjuncts (an
// arbitrary timestamp bound, a humidity range that merely correlates),
// and the paper wants *compact* predicates. Each round re-scores every
// one-clause-removed variant and keeps the best while it is at least as
// good as the current predicate.
func Prune(c Candidate, sc Scored, ctx *Context) (Candidate, Scored) {
	if ctx.prepare() != nil {
		return c, sc
	}
	return pruneWith(c, sc, ctx, ctx.newEnv())
}

func pruneWith(c Candidate, sc Scored, ctx *Context, env *scoreEnv) (Candidate, Scored) {
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

func sortScored(out []Scored) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Complexity != out[j].Complexity {
			return out[i].Complexity < out[j].Complexity
		}
		return out[i].NumTuples < out[j].NumTuples
	})
}

// RankAll scores every candidate, prunes incidental clauses,
// deduplicates by canonical predicate key (keeping the best score), and
// returns the survivors sorted by descending score (ties: fewer
// clauses, then fewer tuples) — nothing when RankAllCarry would return
// an error.
//
// Scoring and pruning run in parallel across a worker pool: once the
// context is prepared, the scoring inputs (clause masks, lineage
// bitsets, flat argument columns) are read-only shared state, so each
// candidate is independent. Results are collected by slot index, keeping
// the final ranking deterministic.
func RankAll(cands []Candidate, ctx *Context) []Scored {
	out, _, _ := RankAllCarry(cands, ctx)
	return out
}

// RankAllCarry is RankAll plus the carryable state of the survivors:
// the returned RankerState holds every ranked predicate with its frozen
// target set and score, ready for an incremental Debug over a grown
// table to rescore without re-running the learners. An error is
// ctx.Ctx's cancellation, a chunk-load failure, or influence.NewScorer's
// refusal of the context (out-of-range suspect, an aggregate it cannot
// score); nothing is published on error.
func RankAllCarry(cands []Candidate, ctx *Context) ([]Scored, *RankerState, error) {
	out, targets, _, err := rankCore(cands, ctx, "fresh")
	if err != nil {
		return nil, nil, err
	}
	return out, newRankerState(out, targets), nil
}

// rankCore is the shared ranking pass behind RankAll, RankAllCarry and
// RankerState.Rescore: worker-pool scoring + pruning, key dedup, sort.
// It additionally returns the target set per final
// predicate key and, aligned with cands, each candidate's raw
// (pre-prune) score — NaN for candidates that scored vacuous or
// tautological — which Rescore turns into the drift signal. On an
// out-of-core source a chunk-load failure — on this goroutine or in a
// pool worker extending a clause mask — comes back as an error wrapping
// *engine.SegmentLoadError once the pool has drained.
func rankCore(cands []Candidate, ctx *Context, provenance string) (_ []Scored, _ map[string]*bitset.Bitset, _ []float64, err error) {
	defer engine.CatchSegmentLoad(&err)
	cctx := ctx.Ctx
	if cctx == nil {
		cctx = context.Background()
	}
	if err := ctx.prepare(); err != nil {
		return nil, nil, nil, err
	}
	// Targets carried from a shorter table version widen to this one
	// (appended rows are outside every carried target).
	for i := range cands {
		if t := cands[i].Target; t != nil && t.Len() != ctx.Res.Source.NumRows() {
			cands[i].Target = bitset.SnapshotWords(ctx.Res.Source.NumRows(), t.Words())
		}
	}

	type slot struct {
		c  Candidate
		sc Scored
		ok bool
	}
	slots := make([]slot, len(cands))
	raw := make([]float64, len(cands))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	scoreOne := func(i int, env *scoreEnv) (err error) {
		defer engine.CatchSegmentLoad(&err)
		c := cands[i]
		sc, ok := score(c, ctx, env)
		if ok {
			raw[i] = sc.Score
		}
		if ok && !ctx.DisablePrune {
			c, sc = pruneWith(c, sc, ctx, env)
		}
		slots[i] = slot{c: c, sc: sc, ok: ok}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Pointer[error] // the first worker's chunk-load failure
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := ctx.newEnv()
			for i := range jobs {
				// Cancellation (and failure) check per candidate: remaining
				// jobs drain unscored so the producer never blocks, and
				// rankCore discards everything after the pool joins.
				raw[i] = math.NaN()
				if cctx.Err() != nil || failed.Load() != nil {
					continue
				}
				if err := scoreOne(i, env); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := cctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("ranker: cancelled: %w", err)
	}
	if errp := failed.Load(); errp != nil {
		return nil, nil, nil, fmt.Errorf("ranker: %w", *errp)
	}

	byKey := make(map[string]Scored)
	targets := make(map[string]*bitset.Bitset)
	var order []string
	for i := range slots {
		if !slots[i].ok {
			continue
		}
		c, sc := slots[i].c, slots[i].sc
		key := c.Pred.Key()
		prev, seen := byKey[key]
		if !seen {
			order = append(order, key)
			byKey[key] = sc
			targets[key] = c.Target
		} else if sc.Score > prev.Score {
			byKey[key] = sc
			targets[key] = c.Target
		}
	}
	out := make([]Scored, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	sortScored(out)
	for i := range out {
		out[i].Provenance = provenance
	}
	return out, targets, raw, nil
}

// RankerState carries one ranking pass's survivors — predicates, their
// frozen target sets, and the scores they were reported with — so a
// following incremental Debug over a grown table can rescore exactly
// these candidates against the advanced scoring state instead of
// re-running the learners. The state is immutable; Rescore returns a
// fresh state for the next step of the chain.
type RankerState struct {
	cands  []Candidate
	scores []float64
}

// newRankerState snapshots the full ranked list (pre-truncation).
func newRankerState(scored []Scored, targets map[string]*bitset.Bitset) *RankerState {
	st := &RankerState{
		cands:  make([]Candidate, len(scored)),
		scores: make([]float64, len(scored)),
	}
	for i, s := range scored {
		st.cands[i] = Candidate{Pred: s.Pred, Origin: s.Origin, Target: targets[s.Pred.Key()]}
		st.scores[i] = s.Score
	}
	return st
}

// Len returns the number of carried candidates.
func (st *RankerState) Len() int {
	if st == nil {
		return 0
	}
	return len(st.cands)
}

// Rescore scores the carried candidates against ctx — typically the
// advanced context of a grown table — through the same worker pool,
// pruning and dedup mechanics as RankAll, and reports how far
// the carried predicates' raw scores moved since the previous pass:
// drift is the largest |new−old| over the carried candidates, +Inf when
// a previously-ranked predicate scored vacuous or tautological under
// the new data (its anomaly dissolved — a material change no score
// delta can bound). The caller compares drift against its threshold to
// decide whether the carried ranking stands or the learners must
// re-expand. A cancellation (ctx.Ctx) returns an error and leaves st
// untouched and reusable — rankCore works on copies throughout.
func (st *RankerState) Rescore(ctx *Context) ([]Scored, *RankerState, float64, error) {
	// Work on copies: the state's candidates stay clean (rankCore widens
	// their targets to ctx's table version).
	cands := make([]Candidate, len(st.cands))
	copy(cands, st.cands)
	out, targets, raw, err := rankCore(cands, ctx, "carried")
	if err != nil {
		return nil, nil, 0, err
	}
	drift := 0.0
	for i := range raw {
		if math.IsNaN(raw[i]) {
			drift = math.Inf(1)
			break
		}
		if d := math.Abs(raw[i] - st.scores[i]); d > drift {
			drift = d
		}
	}
	return out, newRankerState(out, targets), drift, nil
}
