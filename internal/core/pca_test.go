package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/testgen"
)

func TestPCAGroupsOnWindowResult(t *testing.T) {
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 30_000, Seed: 7})
	res, err := testgen.Query(t.Context(), db, datasets.IntelWindowSQL)
	if err != nil {
		t.Fatal(err)
	}
	proj, explained, err := PCAGroups(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj) != res.Table.NumRows() {
		t.Fatalf("projection rows: %d vs %d", len(proj), res.Table.NumRows())
	}
	if explained[0] <= 0 || explained[0] > 1 {
		t.Errorf("explained[0] = %v", explained[0])
	}
	if explained[1] > explained[0] {
		t.Errorf("explained not descending: %v", explained)
	}
	// The projection must separate the anomalous windows: points are
	// not all identical.
	distinct := false
	for i := 1; i < len(proj); i++ {
		if proj[i] != proj[0] {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("degenerate projection")
	}
}

func TestPCAGroupsErrors(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 5_000, Seed: 1})
	// Single aggregate + string group key → only one numeric column
	// after the day column... day is numeric, so use a two-column case
	// with too few rows instead.
	res, err := testgen.Query(t.Context(), db, "SELECT candidate, sum(amount) AS s, count(*) AS n FROM donations GROUP BY candidate")
	if err != nil {
		t.Fatal(err)
	}
	// 4 candidates ≥ 3 rows and 2 numeric columns → works.
	if _, _, err := PCAGroups(res); err != nil {
		t.Errorf("PCA on candidate summary: %v", err)
	}
	res2, err := testgen.Query(t.Context(), db, "SELECT candidate, sum(amount) AS s FROM donations GROUP BY candidate LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PCAGroups(res2); err == nil {
		t.Error("PCA with 2 groups should fail")
	}
}
