package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
)

// This file pins the conjunct walker: AND chains mixing lowerable and
// non-lowerable conjuncts evaluate the non-lowerable ones per row only
// on bits that survive the lowered prefix, OR roots lower through the
// Kleene combinators (or ride as one residual when an arm does not
// lower), and the all-residual case — nothing lowers, or the predicate
// index cannot serve the table version — is the same walk. All against
// the RunReference oracle, plus the canonical fallback-reason
// vocabulary.

func TestResidualFilterEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := parityTable(rng, 4000)
	sql := "SELECT j, sum(f) AS sf, count(*) AS n FROM p WHERE i >= 4 AND lower(s) LIKE 'a%' GROUP BY j"
	stmt := mustParse(t, sql)
	res, err := Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Vectorized || !res.Plan.WhereLowered {
		t.Fatalf("residual chain left the vectorized path: %+v", res.Plan)
	}
	if res.Plan.ResidualConjuncts != 1 {
		t.Fatalf("ResidualConjuncts = %d, want 1", res.Plan.ResidualConjuncts)
	}
	if res.Plan.Fallback != "" || res.Plan.FilterFallback != "" {
		t.Fatalf("unexpected fallback: %q / %q", res.Plan.Fallback, res.Plan.FilterFallback)
	}
	if res.Plan.FilterConjuncts != 2 {
		t.Fatalf("FilterConjuncts = %d, want 2", res.Plan.FilterConjuncts)
	}
	// i >= 4 keeps roughly 2/11 of rows (i uniform in [-5, 5] with 15%
	// NULLs); the LIKE must only have been evaluated on the survivors.
	if res.Plan.ResidualRows == 0 || res.Plan.ResidualRows >= tbl.NumRows()/2 {
		t.Fatalf("ResidualRows = %d, want in (0, %d)", res.Plan.ResidualRows, tbl.NumRows()/2)
	}
	ref, err := runRef(tbl, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, sql, ref.Table, res.Table)
	groupsEqual(t, sql, ref, res)
}

// randResidualAnd builds an AND chain of 2..5 conjuncts with at least
// one guaranteed non-lowerable conjunct at a random position, so every
// statement exercises the residual path (all-residual when nothing
// else lowers).
func randResidualAnd(rng *rand.Rand) expr.Expr {
	n := 2 + rng.Intn(4)
	parts := make([]expr.Expr, n)
	for i := range parts {
		parts[i] = randWhere(rng, 1)
	}
	// Overwrite 1..n-1 random positions with guaranteed residual shapes.
	k := 1 + rng.Intn(n-1)
	for _, p := range rng.Perm(n)[:k] {
		if rng.Intn(2) == 0 {
			parts[p] = &expr.Like{X: expr.NewFunc("lower", expr.NewCol("s")), Pattern: []string{"a%", "%y", "_"}[rng.Intn(3)], Invert: rng.Intn(2) == 0}
		} else {
			lhs := expr.NewBin(expr.OpAdd, expr.NewCol("f"), expr.Float(0.25))
			parts[p] = expr.NewBin(cmpOps[rng.Intn(len(cmpOps))], lhs, randLit(rng, "f"))
		}
	}
	// Occasionally prepend an empty clause so the eligibility mask
	// drains and the short-circuit engages with residuals pending.
	if rng.Float64() < 0.2 {
		parts = append([]expr.Expr{expr.NewBin(expr.OpGt, expr.NewCol("i"), expr.Int(100))}, parts...)
	}
	out := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		out = expr.NewBin(expr.OpAnd, parts[i], out)
	}
	return out
}

func TestResidualFilterParityRandomized(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	sawResidual, sawShortCircuit := false, false
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		tbl := parityTable(rng, 1200)
		tables := []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} // one fold block, then 19
		for iter := 0; iter < 60; iter++ {
			stmt, _ := randStmt(rng)
			stmt.Where = randResidualAnd(rng)
			for _, tbl := range tables {
				ref, refErr := runRef(tbl, stmt)
				got, gotErr := Run(t.Context(), tbl, stmt)
				if (refErr != nil) != (gotErr != nil) {
					t.Fatalf("seed %d iter %d, %d-row segments: error disagreement\nref: %v\ngot: %v\nwhere: %s",
						seed, iter, tbl.SegRows(), refErr, gotErr, stmt.Where)
				}
				if refErr != nil {
					continue
				}
				label := fmt.Sprintf("seed %d iter %d, %d-row segments [%s]", seed, iter, tbl.SegRows(), stmt.Where)
				tablesEqual(t, label, ref.Table, got.Table)
				groupsEqual(t, label, ref, got)
				if got.Plan.ResidualConjuncts > 0 {
					sawResidual = true
					if got.Plan.FilterShortCircuited > 0 {
						sawShortCircuit = true
					}
				}
			}
		}
	}
	if !sawResidual {
		t.Fatal("no statement took the residual filter path")
	}
	if !sawShortCircuit {
		t.Fatal("the eligibility short-circuit never engaged on a residual chain")
	}
}

// TestOrRootLowering pins OR at the root of the WHERE: it is a chain of
// one conjunct, lowered through the Kleene combinators when every arm
// lowers and evaluated as one residual when any arm does not.
func TestOrRootLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := parityTable(rng, 3000)
	tables := []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} // one fold block, then 47
	for _, tc := range []struct {
		sql     string
		lowered bool
	}{
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR i > 3 OR f < -7 GROUP BY j", true},
		// j >= 0 is TRUE for every row (j has no NULLs): the union fills.
		{"SELECT i, count(*) AS n FROM p WHERE j >= 0 OR s = 'b' OR f > 2 GROUP BY i", true},
		{"SELECT j, count(*) AS n FROM p WHERE (i > 0 AND s = 'a') OR (f < 0 AND NOT j = 2) GROUP BY j", true},
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR s NOT LIKE '%y' GROUP BY j", true},
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR lower(s) LIKE '%y' GROUP BY j", false},
	} {
		for _, tbl := range tables {
			res := runBoth(t, tbl, tc.sql)
			assertPipeline(t, tc.sql, res)
			if res.Plan.FilterConjuncts != 1 || res.Plan.WhereLowered != tc.lowered {
				t.Fatalf("[%s] OR root: want one conjunct, lowered=%v, got %+v", tc.sql, tc.lowered, res.Plan)
			}
		}
	}
	t.Run("randomized", func(t *testing.T) {
		sawLowered, sawResidual := false, false
		for iter := 0; iter < 60; iter++ {
			stmt, _ := randStmt(rng)
			// Root OR chain of simple randWhere leaves, some lowerable,
			// some not.
			n := 2 + rng.Intn(3)
			w := randWhere(rng, 0)
			for k := 1; k < n; k++ {
				w = expr.NewBin(expr.OpOr, w, randWhere(rng, 0))
			}
			stmt.Where = w
			for _, tbl := range tables {
				ref, refErr := runRef(tbl, stmt)
				got, gotErr := Run(t.Context(), tbl, stmt)
				if (refErr != nil) != (gotErr != nil) {
					t.Fatalf("iter %d, %d-row segments: error disagreement ref=%v got=%v where=%s", iter, tbl.SegRows(), refErr, gotErr, stmt.Where)
				}
				if refErr != nil {
					continue
				}
				label := fmt.Sprintf("or iter %d, %d-row segments [%s]", iter, tbl.SegRows(), stmt.Where)
				tablesEqual(t, label, ref.Table, got.Table)
				groupsEqual(t, label, ref, got)
				assertPipeline(t, label, got)
				if got.Plan.WhereLowered {
					sawLowered = true
				} else {
					sawResidual = true
				}
			}
		}
		if !sawLowered || !sawResidual {
			t.Fatalf("harness coverage: sawLowered=%v sawResidual=%v", sawLowered, sawResidual)
		}
	})
}

// TestFilterFallbackVocabulary pins the canonical Plan.FilterFallback
// reason strings.
func TestFilterFallbackVocabulary(t *testing.T) {
	tbl := vectorTestTable(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"lowered", "SELECT city, count(*) AS n FROM v WHERE pop > 10 GROUP BY city", ""},
		{"shape", "SELECT city, count(*) AS n FROM v WHERE length(city) > 2 GROUP BY city", fallbackFilterShape},
		{"shape-all-residual-chain", "SELECT city, count(*) AS n FROM v WHERE length(city) > 2 AND lower(city) LIKE 'a%' GROUP BY city", fallbackFilterShape},
		{"mixed-chain", "SELECT city, count(*) AS n FROM v WHERE length(city) > 2 AND pop > 10 GROUP BY city", ""},
		{"no-where", "SELECT city, count(*) AS n FROM v GROUP BY city", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runBoth(t, tbl, tc.sql)
			if res.Plan.FilterFallback != tc.want || res.Plan.WhereLowered != (tc.want == "") {
				t.Fatalf("FilterFallback = %q, want %q (plan %+v)", res.Plan.FilterFallback, tc.want, res.Plan)
			}
		})
	}
}

// TestFilterGeometryMismatch: a snapshot whose retention base the
// family's index has already rebased past still lowers, on masks built
// for its own rows, and answers what the reference scan answers.
func TestFilterGeometryMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	old := tinySegTable(rng, 300)
	grown, err := old.AppendBatch(batchRows(rng, 100))
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * grown.SegRows()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedRows == 0 {
		t.Fatal("fixture dropped nothing: retention not exercised")
	}
	sql := "SELECT s, j, count(*) AS n, sum(f) AS sf FROM p WHERE i >= 0 AND j < 3 GROUP BY s, j"
	// A query on the retained version rebases the family's index.
	if res := runBoth(t, cur, sql); !res.Plan.WhereLowered {
		t.Fatalf("retained version did not lower: %+v", res.Plan)
	}
	ref, err := runRef(old, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(t.Context(), old, mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	assertPipeline(t, sql, res)
	if res.Plan.FilterFallback != "" || !res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 0 {
		t.Fatalf("superseded snapshot: want a lowered walk, got %+v", res.Plan)
	}
	tablesEqual(t, sql, ref.Table, res.Table)
	groupsEqual(t, sql, ref, res)
}

// The residual loop must poll the context: a pre-canceled context
// aborts inside buildFilter rather than scanning every eligible row.
func TestResidualFilterCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := parityTable(rng, 500)
	where := mustParse(t, "SELECT j, count(*) AS n FROM p WHERE i >= -100 AND lower(s) LIKE 'a%' GROUP BY j").Where
	if err := where.Resolve(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := buildFilter(ctx, tbl, where, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context did not abort the residual filter: %v", err)
	}
}
