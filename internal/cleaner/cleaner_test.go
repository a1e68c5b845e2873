package cleaner

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/feature"
)

// cleanFixture: table whose rows 0..19 are tight (volt≈2.3, temp≈110,
// mostly in the lab) and rows 20..24 are scattered inliers (the user's
// mis-clicks); every fifth site is NULL.
func cleanFixture(t *testing.T) (*feature.Space, []int) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"temp", engine.TFloat, "volt", engine.TFloat, "site", engine.TString))
	rng := rand.New(rand.NewSource(3))
	site := func(i int, name string) engine.Value {
		if i%5 == 4 {
			return engine.Null
		}
		return engine.NewString(name)
	}
	var rows [][]engine.Value
	for i := 0; i < 20; i++ {
		rows = append(rows, []engine.Value{engine.NewFloat(110 + rng.NormFloat64()), engine.NewFloat(2.3 + rng.NormFloat64()*0.01), site(i, "lab")})
	}
	for i := 0; i < 30; i++ {
		rows = append(rows, []engine.Value{engine.NewFloat(68 + rng.NormFloat64()), engine.NewFloat(2.65 + rng.NormFloat64()*0.01), site(i, "hall")})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{})
	dprime := make([]int, 0, 25)
	for i := 0; i < 20; i++ {
		dprime = append(dprime, i)
	}
	// Five accidental inliers.
	for i := 20; i < 25; i++ {
		dprime = append(dprime, i)
	}
	return sp, dprime
}

// lineageOf marks rows [0, n) as the suspect lineage.
func lineageOf(sp *feature.Space, n int) *bitset.Bitset {
	b := bitset.New(sp.Table.NumRows())
	for r := 0; r < n; r++ {
		b.Set(r)
	}
	return b
}

func TestCleanBayes(t *testing.T) {
	sp, dprime := cleanFixture(t)
	kept := Clean(sp.Frame, dprime, lineageOf(sp, 50))
	// Bayes should reject most accidental inliers (they look like the
	// rest of the lineage) and keep the tight cluster whole.
	stragglers := 0
	for _, r := range kept {
		if r >= 20 {
			stragglers++
		}
	}
	if stragglers > 2 || len(kept)-stragglers != 20 {
		t.Errorf("bayes kept %d of the 20 consistent rows and %d of the 5 stragglers", len(kept)-stragglers, stragglers)
	}
	// Without contrast in the frame — the lineage is D' itself — bayes is
	// a no-op.
	if same := Clean(sp.Frame, dprime, lineageOf(sp, 25)); len(same) != len(dprime) {
		t.Error("bayes without background should be a no-op")
	}
}

func TestCleanNoneAndSmallInputs(t *testing.T) {
	sp, _ := cleanFixture(t)
	small := []int{1, 2, 3}
	if got := Clean(sp.Frame, small, lineageOf(sp, 50)); len(got) != 3 {
		t.Error("tiny D' should be kept whole")
	}
	// A D' row the frame does not hold is kept unjudged.
	part := feature.NewSpace(sp.Table, feature.Options{Rows: []int{0, 1, 2, 3, 30, 31, 32, 33}})
	if got := Clean(part.Frame, []int{0, 1, 2, 3, 24}, lineageOf(sp, 50)); len(got) != 5 {
		t.Errorf("kept %v of a D' whose row 24 is outside the frame", got)
	}
}

func TestCleanMinKeepGuard(t *testing.T) {
	// A D' of which 12 rows look like the rest of the lineage and 8 do
	// not: the model would discard more than half, so the guard keeps
	// the user's selection whole.
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TFloat))
	var rows [][]engine.Value
	for i := 0; i < 40; i++ {
		x := 0.0
		if i < 8 {
			x = 100
		}
		rows = append(rows, []engine.Value{engine.NewFloat(x + float64(i%3))})
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{})
	dprime := make([]int, 20)
	for i := range dprime {
		dprime[i] = i
	}
	lineage := bitset.New(40)
	lineage.Fill()
	if kept := Clean(sp.Frame, dprime, lineage); len(kept) != 20 {
		t.Errorf("guard failed: kept %d", len(kept))
	}
}

func TestNaiveBayesPredict(t *testing.T) {
	sp, _ := cleanFixture(t)
	class := make([]int8, 50)
	for i := 0; i < 20; i++ {
		class[i] = 1
	}
	class[49] = -1 // left out of training, still classifiable
	nb := TrainNaiveBayes(sp.Frame, class)
	// A hot, low-voltage row is positive; a cool one negative.
	if !nb.Predict(0) {
		t.Error("anomalous row classified negative")
	}
	if nb.Predict(30) || nb.Predict(49) {
		t.Error("clean row classified positive")
	}
}
