package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// examplesWhereBoxed is ExamplesWhere as it was before it became a WHERE
// mask: every lineage row boxed whole and handed to the scalar
// evaluator, ascending, stopping at the first error. It is the reference
// the mask pipeline is pinned to — rows, order and error alike.
func examplesWhereBoxed(res *exec.Result, suspect []int, cond string) ([]int, error) {
	e, err := sqlparse.ParseExpr(cond)
	if err != nil {
		return nil, err
	}
	if err := e.Resolve(res.Source.Schema()); err != nil {
		return nil, err
	}
	var out []int
	row := make([]engine.Value, res.Source.NumCols())
	rr := res.Source.NewRowReader()
	defer rr.Close()
	for _, r := range res.Lineage(suspect) {
		rr.RowInto(r, row)
		ok, err := expr.EvalBool(e, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// Conditions over testgen.Schema by how the walker treats them. The
// lowerable ones must never evaluate a row.
var (
	examplesLowerable = []string{
		"f > 1", "i >= 0 AND j < 3", "s = 'a' OR j = 2", "f IS NULL", "i BETWEEN -2 AND 2",
		"s IN ('a', 'xy')", "NOT (j = 1)", "f IS NULL OR s IS NULL", "i IS NOT NULL AND f = 0",
		"s IS NULL AND i IS NULL", "j <> 0 AND NOT (s = '')", "f = 0 OR NOT (i > 1)",
		"s LIKE 'a%'", "i >= 0 AND s NOT LIKE '%y'", "s LIKE '_' OR f IS NULL",
	}
	examplesResidual = []string{
		"lower(s) LIKE 'a%'", "f + 0.25 > 1", "i * j > 2", "i >= 0 AND lower(s) LIKE '%y'",
		"lower(s) LIKE '_' AND f < 1 AND j <> 2", "f / i > 0.5 OR s IS NULL", "j", "f - i",
		"lower(s) LIKE '%' AND f IS NULL",
		"j > 100 AND s + 1 > 0", // FALSE on every row: the error is unreachable
		"i > 100 AND s + 1 > 0", // FALSE or NULL: reachable where i IS NULL and s is not
	}
)

func TestExamplesWhereDifferential(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 3
	}
	compared, lowered, residual, rebased, errInside, errOutside := 0, 0, 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 577))
		cur := testgen.TableSeg(rng, 150+rng.Intn(150), engine.MinSegmentBits)
		// Grouping by s gives a group whose lineage is exactly the rows
		// where s IS NULL: the one place "s + 1" cannot error.
		stmt, err := sqlparse.Parse("SELECT s, avg(f) AS a, count(*) AS n FROM p GROUP BY s")
		if seed%2 == 0 {
			stmt, err = testgen.DebugStmt(rng), nil
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(t.Context(), cur, stmt)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, suspect []int, cond string) (exec.PlanInfo, error) {
			t.Helper()
			want, wantErr := examplesWhereBoxed(res, suspect, cond)
			got, gotErr := ExamplesWhereCtx(t.Context(), res, suspect, cond)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s [%s] suspect %v: error %v, the scalar loop's %v", label, cond, suspect, gotErr, wantErr)
			}
			if !slices.Equal(got, want) || !slices.IsSorted(got) {
				t.Fatalf("%s [%s] suspect %v:\n got %v\nwant %v", label, cond, suspect, got, want)
			}
			compared++
			// The plan of the walk ExamplesWhere made: the same condition
			// over the same universe.
			e, err := sqlparse.ParseExpr(cond)
			if err == nil {
				err = e.Resolve(res.Source.Schema())
			}
			if err != nil {
				t.Fatal(err)
			}
			pass, plan, _ := exec.FilterRows(context.Background(), res.Source, e, bitset.FromRows(res.Source.NumRows(), res.Lineage(suspect)))
			if gotErr == nil && !slices.Equal(pass.Rows(), got) {
				t.Fatalf("%s [%s]: exec.FilterRows over the lineage is not what ExamplesWhere returned", label, cond)
			}
			return plan, gotErr
		}
		for step := 0; step < 6; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			n := res.NumRows()
			for trial := 0; trial < 4 && n > 0; trial++ {
				suspect := []int{rng.Intn(n), n + 3, rng.Intn(n), -1}[:1+rng.Intn(4)] // with repeats and out-of-range indexes
				lineage := len(res.Lineage(suspect))
				for _, cond := range examplesLowerable {
					if plan, _ := check(label, suspect, cond); !plan.WhereLowered || plan.ResidualRows != 0 || plan.ResidualConjuncts != 0 {
						t.Fatalf("%s [%s]: a lowerable condition evaluated rows: %+v", label, cond, plan)
					}
					lowered++
				}
				for _, cond := range examplesResidual {
					plan, err := check(label, suspect, cond)
					if err == nil && (plan.ResidualConjuncts == 0 || plan.ResidualRows > plan.ResidualConjuncts*lineage) {
						t.Fatalf("%s [%s]: residual walk outside the %d lineage rows: %+v", label, cond, lineage, plan)
					}
					residual++
				}
			}
			// "s + 1" errors on every row where s is a string and is NULL
			// where s is: it fails exactly when such a row is lineage.
			if len(stmt.GroupBy) == 1 && stmt.GroupBy[0].String() == "s" {
				for ri, g := range res.Groups {
					_, err := check(label, []int{ri}, "s + 1 > 0")
					switch {
					case g.Key[0].IsNull() && err != nil:
						t.Fatalf("%s: a condition that errors only outside the lineage failed: %v", label, err)
					case g.Key[0].IsNull():
						errOutside++
					case err == nil:
						t.Fatalf("%s: a condition that errors on lineage rows (s = %v) succeeded", label, g.Key[0])
					default:
						errInside++
					}
				}
			}

			// Grow (the family's shared clause masks extend by the suffix),
			// and once per chain trim the head so the next advance rebases.
			grown, err := cur.AppendBatch(testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, cur)))
			if err != nil {
				t.Fatal(err)
			}
			if step == 3 {
				var dropped int
				if grown, dropped = enginetest.RetainStep(rng, grown); dropped > 0 {
					rebased++
				}
			}
			if res, err = exec.AdvanceCtx(t.Context(), res, grown); err != nil {
				t.Fatalf("%s: Advance: %v", label, err)
			}
			cur = grown
		}
	}
	t.Logf("%d comparisons: %d lowered, %d residual, %d chains rebased, error inside the lineage %d / only outside it %d",
		compared, lowered, residual, rebased, errInside, errOutside)
	if lowered == 0 || residual == 0 || rebased == 0 || errInside == 0 || errOutside == 0 {
		t.Fatal("harness degenerated")
	}
}

// A chunk that fails to load while a clause mask is being built, or
// while a residual conjunct reads a row, is ExamplesWhere's error — never
// a panic, never a pin left behind — and the same call succeeds once the
// filesystem heals.
func TestExamplesWhereLoadFailure(t *testing.T) {
	quiet := func(string, ...any) {}
	fs := vfstest.NewMemFS()
	rng := rand.New(rand.NewSource(5))
	st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("p", testgen.Batch(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A pool far smaller than one chunk: every pin is a read.
	if st, err = store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet, MaxResidentBytes: 256}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := testgen.Query(t.Context(), st.Eng(), "SELECT j, avg(f) AS a FROM p GROUP BY j")
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range []string{"i > 1", "lower(s) LIKE 'a%'"} { // a mask build, a residual read
		fs.FailReadAt(1)
		_, err := ExamplesWhereCtx(t.Context(), res, allGroups(res), cond)
		fs.FailReadAt(0)
		var sle *engine.SegmentLoadError
		if !errors.As(err, &sle) || !errors.Is(err, vfstest.ErrInjected) {
			t.Fatalf("[%s]: error %v does not wrap the SegmentLoadError of the injected fault", cond, err)
		}
		if pinned := st.PoolPinned(); pinned != 0 {
			t.Fatalf("[%s]: %d chunks pinned after the failed walk", cond, pinned)
		}
		got, err := ExamplesWhereCtx(t.Context(), res, allGroups(res), cond)
		want, wantErr := examplesWhereBoxed(res, allGroups(res), cond)
		if err != nil || wantErr != nil || !slices.Equal(got, want) || len(got) == 0 {
			t.Fatalf("[%s] on the healed filesystem: %v (%v), want %v (%v)", cond, got, err, want, wantErr)
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
