package baseline

import (
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/influence"
	"repro/internal/testgen"
)

func fecFixture(t *testing.T) (*exec.Result, []int, *datasets.Truth) {
	t.Helper()
	db, labels := datasets.FECDB(datasets.FECConfig{Rows: 30_000, Seed: 2})
	res, err := testgen.Query(t.Context(), db, datasets.FECDailySQL("McCain"))
	if err != nil {
		t.Fatal(err)
	}
	var suspect []int
	totCol := res.Table.Schema().ColIndex("total")
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, totCol)
		if !v.IsNull() && v.Float() < 0 {
			suspect = append(suspect, r)
		}
	}
	if len(suspect) == 0 {
		t.Fatal("no suspects")
	}
	return res, suspect, datasets.NewTruth(labels)
}

// lineage is the suspect groups' lineage, F.
func lineage(t *testing.T, res *exec.Result, suspect []int) []int {
	t.Helper()
	prov, err := res.Provenance(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return prov.Lineage(suspect)
}

func TestFullProvenanceIsLineage(t *testing.T) {
	res, suspect, truth := fecFixture(t)
	full, err := FullProvenance(t.Context(), res, suspect)
	if err != nil {
		t.Fatal(err)
	}
	want := lineage(t, res, suspect)
	if len(full) != len(want) {
		t.Fatalf("full provenance size %d vs %d", len(full), len(want))
	}
	// Low precision is the point of the comparison.
	p, r, _ := truth.Score(full, full)
	if r != 1 {
		t.Errorf("full provenance recall %v, want 1", r)
	}
	if p > 0.9 {
		t.Errorf("full provenance precision suspiciously high: %v", p)
	}
}

func TestTopKInfluence(t *testing.T) {
	res, suspect, truth := fecFixture(t)
	top, err := TopKInfluence(res, suspect, 0, errmetric.TooLow{C: 0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || len(top) > 100 {
		t.Fatalf("topk size: %d", len(top))
	}
	p, _, _ := truth.Score(top, lineage(t, res, suspect))
	if p < 0.9 {
		t.Errorf("topk precision %.2f; the negative donations should dominate", p)
	}
}

func TestExhaustiveFindsMemoPredicate(t *testing.T) {
	res, suspect, truth := fecFixture(t)
	out, err := Exhaustive(res, suspect, 0, errmetric.TooLow{C: 0}, ExhaustiveOptions{
		Feature: feature.Options{Exclude: []string{"amount"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no exhaustive results")
	}
	best := out[0]
	if best.ErrImprovement < 0.95 {
		t.Errorf("best improvement %.2f: %s", best.ErrImprovement, best.Pred)
	}
	if !strings.Contains(best.Pred.String(), "memo") {
		t.Errorf("best exhaustive predicate %q does not reference memo", best.Pred)
	}
	if best.Evaluated <= 0 {
		t.Error("evaluation count missing")
	}
	matched := best.Pred.MatchingRows(res.Source, lineage(t, res, suspect))
	p, r, _ := truth.Score(matched, lineage(t, res, suspect))
	if p < 0.9 || r < 0.9 {
		t.Errorf("exhaustive quality: P=%.2f R=%.2f", p, r)
	}
}

// TestExhaustiveMatchesBoxedScoring pins the search's scorer — clause
// masks and Scorer.EpsWithoutBits, as ranker.score — to the boxed oracle:
// every returned predicate's match count and improvement are what
// Predicate.MatchingRows and influence.EpsWithoutRows compute, to the bit.
func TestExhaustiveMatchesBoxedScoring(t *testing.T) {
	res, suspect, _ := fecFixture(t)
	metric := errmetric.TooLow{C: 0}
	out, err := Exhaustive(res, suspect, 0, metric, ExhaustiveOptions{TopN: 200})
	if err != nil || len(out) == 0 {
		t.Fatalf("%d results, %v", len(out), err)
	}
	F := lineage(t, res, suspect)
	eps, err := influence.EpsWithoutRows(res, suspect, 0, metric, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		matched := r.Pred.MatchingRows(res.Source, F)
		epsAfter, err := influence.EpsWithoutRows(res, suspect, 0, metric, matched)
		if err != nil {
			t.Fatal(err)
		}
		if want := (eps - epsAfter) / eps; r.NumTuples != len(matched) || r.ErrImprovement != want {
			t.Errorf("%s: %d tuples, improvement %v; boxed: %d, %v", r.Pred, r.NumTuples, r.ErrImprovement, len(matched), want)
		}
	}
}

func TestExhaustiveSingleClauseOnly(t *testing.T) {
	res, suspect, _ := fecFixture(t)
	out1, err := Exhaustive(res, suspect, 0, errmetric.TooLow{C: 0}, ExhaustiveOptions{
		MaxClauses: 1,
		Feature:    feature.Options{Exclude: []string{"amount"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out1 {
		if r.Pred.Len() > 1 {
			t.Errorf("1-clause search returned %s", r.Pred)
		}
	}
	out2, err := Exhaustive(res, suspect, 0, errmetric.TooLow{C: 0}, ExhaustiveOptions{
		MaxClauses: 2,
		Feature:    feature.Options{Exclude: []string{"amount"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) > 0 && len(out1) > 0 && out2[0].Evaluated <= out1[0].Evaluated {
		t.Error("2-clause search should evaluate more candidates")
	}
}

func TestExhaustiveZeroEps(t *testing.T) {
	// A result with no error: Exhaustive should return nothing.
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	var rows [][]engine.Value
	for i := 0; i < 20; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i % 2)), engine.NewFloat(1)})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := testgen.Query(t.Context(), db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Exhaustive(res, []int{0, 1}, 0, errmetric.TooHigh{C: 5}, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Errorf("zero-eps exhaustive returned %d results", len(out))
	}
}
