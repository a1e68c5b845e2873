package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// These tests pin LIKE on a string column as a lowered leaf: one
// predicate.OpLike clause mask per pattern in the family's shared index,
// extended by the appended suffix — codes the append added to the
// dictionary get their verdicts then — and dropped at retention, with
// F = nonNull \ T, so NULL, NOT LIKE and the Kleene combinators hold.
// All against RunReference, on multibyte and invalid UTF-8 values.

// likeVocab is what the string column draws from: the first five values
// are in the table from the start, the rest arrive with appends.
var likeVocab = []string{"", "a", "ab", "é", "日本", "abc", "xé", "本日", "b%c", "\xff", "éé", "a_"}

// likeCases are the LIKE patterns under test: both wildcards, a bare
// '%', no wildcard, the empty pattern, and '_' against multibyte runes.
var likeCases = []string{"a%", "%b%", "_", "__", "%", "", "ab", "é", "_本", "%é", "%_%", "b%", "%\xff"}

// likeRows draws k rows over the first vocab values of likeVocab, one in
// seven of them NULL.
func likeRows(rng *rand.Rand, k, vocab int) [][]engine.Value {
	rows := make([][]engine.Value, k)
	for i := range rows {
		s := engine.NewString(likeVocab[rng.Intn(vocab)])
		if rng.Intn(7) == 0 {
			s = engine.Null
		}
		rows[i] = []engine.Value{s, engine.NewInt(int64(rng.Intn(4)))}
	}
	return rows
}

func likeTable(t *testing.T, rng *rand.Rand, k int) *engine.Table {
	t.Helper()
	tbl, err := engine.NewTableSeg("p", engine.NewSchema("s", engine.TString, "j", engine.TInt), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.AppendBatch(likeRows(rng, k, 5)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// likeStmt is a grouped statement over likeTable filtered by where.
func likeStmt(t *testing.T, where expr.Expr) *sqlparse.SelectStmt {
	t.Helper()
	stmt := mustParse(t, "SELECT j, count(*) AS n, count(s) AS c FROM p GROUP BY j")
	stmt.Where = where
	return stmt
}

// likeWheres is every pattern alone, negated, and under AND/OR/NOT with a
// comparison, so the leaf's FALSE mask is read too.
func likeWheres() []expr.Expr {
	var out []expr.Expr
	for _, pat := range likeCases {
		like := &expr.Like{X: expr.NewCol("s"), Pattern: pat}
		notLike := &expr.Like{X: expr.NewCol("s"), Pattern: pat, Invert: true}
		j := expr.NewBin(expr.OpGe, expr.NewCol("j"), expr.Int(2))
		out = append(out, like, notLike,
			expr.NewBin(expr.OpAnd, j, notLike),
			expr.NewBin(expr.OpOr, like, j),
			expr.NewNot(expr.NewBin(expr.OpOr, like, j)))
	}
	return out
}

// likeParity checks a pipeline result against the reference scan of tbl.
func likeParity(t *testing.T, label string, tbl *engine.Table, stmt *sqlparse.SelectStmt, res *Result) {
	t.Helper()
	ref, err := runRef(tbl, stmt)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	tablesEqual(t, label, ref.Table, res.Table)
	groupsEqual(t, label, ref, res)
}

// TestLikeLowersParity runs every LIKE shape fresh, then across an
// append chain whose batches grow the dictionary, with a retention pass
// on the way: each result equals the reference scan's and evaluates no
// row per row.
func TestLikeLowersParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sawDrop := false
	for _, where := range likeWheres() {
		stmt := likeStmt(t, where)
		cur := likeTable(t, rng, 100+rng.Intn(200))
		words := cur.Dict(0).NumValues()
		res, err := RunOn(cur, stmt)
		if err != nil {
			t.Fatalf("[%s]: %v", where, err)
		}
		for step := 0; step <= 3; step++ {
			label := fmt.Sprintf("step %d [%s]", step, where)
			if step > 0 {
				vocab := min(5+3*step, len(likeVocab))
				if cur, err = cur.AppendBatch(likeRows(rng, boundaryBatchSize(rng, cur), vocab)); err != nil {
					t.Fatal(err)
				}
				var stats engine.RetainStats
				if step == 2 {
					if cur, stats, err = cur.RetainTail(engine.RetentionPolicy{MaxRows: cur.SegRows()}); err != nil {
						t.Fatal(err)
					}
					sawDrop = sawDrop || stats.DroppedRows > 0
				}
				if res, err = Advance(res, cur); err != nil {
					t.Fatalf("%s: Advance: %v", label, err)
				}
				if res.Plan.Incremental == (stats.DroppedRows > 0) {
					t.Fatalf("%s: only a retention step re-runs, got %+v", label, res.Plan)
				}
			}
			if !res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 0 || res.Plan.ResidualRows != 0 {
				t.Fatalf("%s: LIKE on a string column did not lower: %+v", label, res.Plan)
			}
			likeParity(t, label, cur, stmt, res)
		}
		if cur.Dict(0).NumValues() <= words {
			t.Fatalf("[%s]: the appends did not grow the dictionary", where)
		}
	}
	if !sawDrop {
		t.Fatal("harness coverage: no retention pass dropped a segment")
	}
}

// TestLikeGeometryMismatch queries a snapshot whose retention base the
// family's index has already rebased past: its LIKE still lowers, on
// masks built for its own rows, and answers what the reference scan
// answers.
func TestLikeGeometryMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	old := likeTable(t, rng, 300)
	grown, err := old.AppendBatch(likeRows(rng, 100, len(likeVocab)))
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * grown.SegRows()})
	if err != nil || stats.DroppedRows == 0 {
		t.Fatalf("fixture did not retain: %v (%+v)", err, stats)
	}
	for i, pat := range likeCases {
		stmt := likeStmt(t, &expr.Like{X: expr.NewCol("s"), Pattern: pat, Invert: i%2 == 1})
		// A query on the retained version rebases the family's index.
		res, err := RunOn(cur, stmt)
		if err != nil || !res.Plan.WhereLowered {
			t.Fatalf("[%s] retained version: %v, plan %+v", stmt.Where, err, res.Plan)
		}
		likeParity(t, fmt.Sprintf("retained [%s]", stmt.Where), cur, stmt, res)
		if res, err = RunOn(old, stmt); err != nil {
			t.Fatal(err)
		}
		if res.Plan.FilterFallback != "" || !res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 0 {
			t.Fatalf("[%s] superseded snapshot: want a lowered walk, got %+v", stmt.Where, res.Plan)
		}
		likeParity(t, fmt.Sprintf("superseded [%s]", stmt.Where), old, stmt, res)
	}
}
