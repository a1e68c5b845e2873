package ranker

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/predicate"
	"repro/internal/testgen"
)

// benchCtx builds a 100k-row grouped result with a handful of candidate
// predicates — the shape of one Debug call's ranking stage.
func benchCtx(b *testing.B) (*Context, []Candidate) {
	b.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "v", engine.TFloat, "memo", engine.TString, "site", engine.TInt))
	rng := rand.New(rand.NewSource(3))
	var rows [][]engine.Value
	for i := 0; i < 100_000; i++ {
		memo, v := "ok", float64(rng.Intn(40))
		if i%11 == 3 {
			memo, v = "BAD", 150+float64(rng.Intn(20))
		}
		rows = append(rows, []engine.Value{engine.NewInt(int64(i % 20)), engine.NewFloat(v),
			engine.NewString(memo), engine.NewInt(int64(i % 8))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := testgen.Query(b.Context(), db, "SELECT k, avg(v) AS a FROM t GROUP BY k")
	if err != nil {
		b.Fatal(err)
	}
	suspect := allGroups(res)
	metric := errmetric.TooHigh{C: 30}
	F := res.Lineage(suspect)
	target := bitset.New(tbl.NumRows())
	for _, r := range F {
		if tbl.Value(r, 2).Str() == "BAD" {
			target.Set(r)
		}
	}
	culpable := target
	an, err := influence.RankCtx(b.Context(), res, suspect, 0, metric)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &Context{
		Res: res, Suspect: suspect, Ord: 0,
		Metric: metric, F: F, Eps: an.Eps, Culpable: culpable,
	}
	var cands []Candidate
	cands = append(cands, Candidate{
		Pred:   predicate.Predicate{Clauses: []predicate.Clause{{Col: "memo", Op: predicate.OpEq, Val: engine.NewString("BAD")}}},
		Origin: "bench", Target: target,
	})
	for _, th := range []float64{60, 100, 140} {
		cands = append(cands, Candidate{
			Pred: predicate.Predicate{Clauses: []predicate.Clause{
				{Col: "v", Op: predicate.OpGt, Val: engine.NewFloat(th)},
				{Col: "site", Op: predicate.OpLe, Val: engine.NewInt(6)},
			}},
			Origin: "bench", Target: target,
		})
	}
	return ctx, cands
}

// BenchmarkScorePredicate compares one candidate scoring through the
// boxed row-at-a-time reference against the production bitset path.
func BenchmarkScorePredicate(b *testing.B) {
	ctx, cands := benchCtx(b)
	if err := ctx.prepare(); err != nil {
		b.Fatal(err)
	}
	env := ctx.newEnv()
	for name, fn := range map[string]func(Candidate) (Scored, bool){
		"boxed":    func(c Candidate) (Scored, bool) { return scoreSlow(c, ctx) },
		"columnar": func(c Candidate) (Scored, bool) { return score(c, ctx, env) },
	} {
		b.Run(name, func(b *testing.B) {
			if _, ok := fn(cands[0]); !ok {
				b.Fatal("candidate rejected")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(cands[i%len(cands)])
			}
		})
	}
}

// BenchmarkRankAll measures the full ranking stage (score + prune +
// dedup) over the candidate set.
func BenchmarkRankAll(b *testing.B) {
	ctx, cands := benchCtx(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _, err := RankAllCarry(cands, ctx); err != nil || len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

// allGroups returns every output row of res, 0..NumRows-1: every group
// a suspect.
func allGroups(res *exec.Result) []int {
	out := make([]int, res.NumRows())
	for i := range out {
		out[i] = i
	}
	return out
}
