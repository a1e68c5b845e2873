package ranker

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/predicate"
)

// TestScoreFastZeroAlloc pins per-predicate scoring to zero steady-state
// allocations once the context is prepared (clause masks warm, target
// bitsets populated, scratch buffers sized). This is the acceptance
// guard for the columnar fast path: any regression that reintroduces
// per-candidate maps or boxed values shows up here as a test failure,
// not just a slower benchmark.
func TestScoreFastZeroAlloc(t *testing.T) {
	res, ctx := fixture(t)
	if err := ctx.prepare(); err != nil {
		t.Fatal(err)
	}
	env := ctx.newEnv()
	c := Candidate{Pred: memoPred(), Origin: "test", Target: badTarget(res)}
	if _, ok := score(c, ctx, env); !ok { // warm clause masks + scratch
		t.Fatal("candidate rejected")
	}
	allocs := testing.AllocsPerRun(100, func() {
		score(c, ctx, env)
	})
	if allocs != 0 {
		t.Fatalf("score allocates %v per run, want 0", allocs)
	}
}

// scoreSlow is the parity reference of score: the same terms computed
// row-at-a-time — boxed matching (Predicate.MatchingRows) and the boxed
// ε re-evaluation (influence.EpsWithoutRows). ctx must be prepared.
func scoreSlow(c Candidate, ctx *Context) (Scored, bool) {
	pop := ctx.Population
	if pop == nil {
		pop = ctx.F
	}
	matchedPop := c.Pred.MatchingRows(ctx.Res.Source, pop)
	// Vacuous and tautological predicates explain nothing.
	if len(matchedPop) == 0 || len(matchedPop) == len(pop) {
		return Scored{}, false
	}
	matched := c.Pred.MatchingRows(ctx.Res.Source, ctx.F)
	if len(matched) == 0 {
		return Scored{}, false
	}
	epsAfter, err := influence.EpsWithoutRows(ctx.Res, ctx.Suspect, ctx.Ord, ctx.Metric, matched)
	if err != nil {
		return Scored{}, false
	}
	if math.IsNaN(epsAfter) {
		epsAfter = 0
	}
	s := Scored{
		Pred:       c.Pred,
		Origin:     c.Origin,
		EpsAfter:   epsAfter,
		Complexity: c.Pred.Len(),
		NumTuples:  len(matched),
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
		var hit int
		for _, r := range matchedPop {
			if c.Target.Get(r) {
				hit++
			}
		}
		s.Precision = float64(hit) / float64(len(matchedPop))
		s.Recall = float64(hit) / float64(nTarget)
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
	}
	s.CulpableFrac = 1
	if ctx.Culpable != nil {
		hit := 0
		for _, r := range matched {
			if ctx.Culpable.Get(r) {
				hit++
			}
		}
		s.CulpableFrac = float64(hit) / float64(len(matched))
	}
	s.Score = finalScore(&s, ctx.DisableExcess)
	return s, true
}

// TestScoreFastMatchesSlow asserts the columnar and boxed scoring paths
// produce identical Scored values on the same candidate — including
// when Population is a capped learner sample that misses lineage rows
// (core's MaxLearnRows), where ε must still reflect the full lineage.
func TestScoreFastMatchesSlow(t *testing.T) {
	for _, sampledPop := range []bool{false, true} {
		res, ctx := fixture(t)
		if sampledPop {
			// Every other lineage row: Population ⊊ F, like learnPop.
			for i, r := range ctx.F {
				if i%2 == 0 {
					ctx.Population = append(ctx.Population, r)
				}
			}
		}
		if err := ctx.prepare(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []Candidate{
			{Pred: memoPred(), Origin: "test", Target: badTarget(res)},
			{Pred: memoPred(), Origin: "test"}, // no target
		} {
			fastSc, fastOK := score(c, ctx, ctx.newEnv())
			slowSc, slowOK := scoreSlow(c, ctx)
			if fastOK != slowOK {
				t.Fatalf("sampledPop=%v: ok mismatch: fast=%v slow=%v", sampledPop, fastOK, slowOK)
			}
			if !reflect.DeepEqual(fastSc, slowSc) {
				t.Fatalf("sampledPop=%v: score mismatch:\n fast: %+v\n slow: %+v", sampledPop, fastSc, slowSc)
			}
		}
	}
}

// TestRankAllDistinctSharedScorerParallel ranks many candidates over
// sum(DISTINCT v): every worker of the pool evaluates
// Distinct.ResultWithoutFloats on the one Scorer's shared states at once,
// which must therefore never write them (run under -race in CI to
// enforce it) — and each score must be the boxed reference's.
func TestRankAllDistinctSharedScorerParallel(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString))
	var rows [][]engine.Value
	for i := 0; i < 2000; i++ {
		memo, v := "", float64(i%40)
		if i%5 == 3 {
			memo, v = "BAD", 100+float64(i%7)
		}
		rows = append(rows, []engine.Value{engine.NewInt(0), engine.NewFloat(v), engine.NewString(memo)})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, sum(DISTINCT v) AS s FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	metric := errmetric.TooHigh{C: 100}
	F := res.Lineage([]int{0})
	eps, err := influence.EpsWithoutRows(res, []int{0}, 0, metric, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Res: res, Suspect: []int{0}, Ord: 0, Metric: metric, F: F, Eps: eps}
	var cands []Candidate
	for th := 10.0; th <= 100; th += 10 {
		cands = append(cands, Candidate{
			Pred:   predicate.New(predicate.Clause{Col: "v", Op: predicate.OpGt, Val: engine.NewFloat(th)}),
			Origin: "test",
		})
	}
	cands = append(cands, Candidate{Pred: memoPred(), Origin: "test"})
	ctx.DisablePrune = true // out[i] is a candidate's own score
	out, _, err := RankAllCarry(cands, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no candidates survived ranking")
	}
	for _, got := range out {
		want, ok := scoreSlow(Candidate{Pred: got.Pred, Origin: got.Origin}, ctx)
		if want.Provenance = got.Provenance; !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("score mismatch:\n pool:      %+v\n reference: %+v (ok %v)", got, want, ok)
		}
	}
}

// TestRankOutOfRangeSuspectIsAnError is the regression test for the
// worker-goroutine panic: a suspect index past the result used to be
// taken for "no columnar scorer", and the boxed path it selected indexed
// res.Groups with it inside a pool worker, where no caller can recover.
func TestRankOutOfRangeSuspectIsAnError(t *testing.T) {
	_, good := fixture(t)
	cands := []Candidate{{Pred: memoPred(), Origin: "test"}}
	bad := func() *Context {
		return &Context{Res: good.Res, Suspect: []int{7}, Metric: good.Metric, F: good.F, Eps: good.Eps}
	}
	if _, _, err := RankAllCarry(cands, bad()); err == nil {
		t.Fatal("RankAllCarry accepted suspect 7 of a 1-row result")
	}
	if _, ok := scoreOne(cands[0], bad()); ok {
		t.Fatal("Score accepted suspect 7 of a 1-row result")
	}
	_, st, err := RankAllCarry(cands, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Rescore(bad()); err == nil {
		t.Fatal("Rescore accepted suspect 7 of a 1-row result")
	}
}
