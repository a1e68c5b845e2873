package ranker

import (
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
	ctx.prepare()
	if !ctx.fastOK {
		t.Fatal("fast path unavailable for avg aggregate")
	}
	env := ctx.newEnv()
	c := Candidate{Pred: memoPred(), Origin: "test", Target: badTarget(res)}
	if _, ok := scoreWith(c, ctx, env); !ok { // warm clause masks + scratch
		t.Fatal("candidate rejected")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scoreWith(c, ctx, env)
	})
	if allocs != 0 {
		t.Fatalf("scoreWith allocates %v per run, want 0", allocs)
	}
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
		ctx.prepare()
		if !ctx.fastOK {
			t.Fatal("fast path unavailable")
		}
		w := ctx.Weights
		if w == (Weights{}) {
			w = DefaultWeights()
		}
		for _, c := range []Candidate{
			{Pred: memoPred(), Origin: "test", Target: badTarget(res)},
			{Pred: memoPred(), Origin: "test"}, // no target
		} {
			fastSc, fastOK := scoreFast(c, ctx, ctx.newEnv(), w)
			slowSc, slowOK := scoreSlow(c, ctx, w)
			if fastOK != slowOK {
				t.Fatalf("sampledPop=%v: ok mismatch: fast=%v slow=%v", sampledPop, fastOK, slowOK)
			}
			if !reflect.DeepEqual(fastSc, slowSc) {
				t.Fatalf("sampledPop=%v: score mismatch:\n fast: %+v\n slow: %+v", sampledPop, fastSc, slowSc)
			}
		}
	}
}

// TestRankAllBoxedFallbackParallel ranks many candidates over a
// DISTINCT aggregate, which has no float fast path: the parallel worker
// pool must drive the boxed scoring path concurrently without racing on
// the shared aggregate states (run under -race in CI to enforce it).
func TestRankAllBoxedFallbackParallel(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString))
	for i := 0; i < 2000; i++ {
		memo, v := "", float64(i%40)
		if i%5 == 3 {
			memo, v = "BAD", 100+float64(i%7)
		}
		tbl.MustAppendRow(engine.NewInt(0), engine.NewFloat(v), engine.NewString(memo))
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
	out := RankAll(cands, ctx)
	if ctx.fastOK {
		t.Fatal("DISTINCT aggregate should not have a float fast path")
	}
	if len(out) == 0 {
		t.Fatal("no candidates survived ranking")
	}
}
