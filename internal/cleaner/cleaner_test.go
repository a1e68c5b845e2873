package cleaner

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/feature"
)

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var points [][]float64
	for i := 0; i < 50; i++ {
		points = append(points, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1})
	}
	km := KMeans(points, 2, 50, 42)
	if len(km.Sizes) != 2 {
		t.Fatalf("clusters: %v", km.Sizes)
	}
	if km.Sizes[0] != 50 || km.Sizes[1] != 50 {
		t.Errorf("sizes: %v", km.Sizes)
	}
	// All of the first 50 in one cluster, all of the second 50 in the other.
	c0 := km.Assign[0]
	for i := 0; i < 50; i++ {
		if km.Assign[i] != c0 {
			t.Fatalf("point %d in cluster %d", i, km.Assign[i])
		}
	}
	for i := 50; i < 100; i++ {
		if km.Assign[i] == c0 {
			t.Fatalf("point %d mixed into cluster %d", i, km.Assign[i])
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var points [][]float64
	for i := 0; i < 100; i++ {
		points = append(points, []float64{rng.Float64(), rng.Float64()})
	}
	a := KMeans(points, 3, 30, 7)
	b := KMeans(points, 3, 30, 7)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if km := KMeans(nil, 3, 10, 1); len(km.Assign) != 0 {
		t.Error("empty input")
	}
	// Fewer points than k.
	km := KMeans([][]float64{{1}, {2}}, 5, 10, 1)
	if len(km.Centroids) > 2 {
		t.Errorf("k capped: %d centroids", len(km.Centroids))
	}
	// All identical points.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	km = KMeans(same, 2, 10, 1)
	if km.Inertia != 0 {
		t.Errorf("identical points inertia: %v", km.Inertia)
	}
}

// cleanFixture: table whose rows 0..19 are tight (volt≈2.3, temp≈110)
// and rows 20..24 are scattered inliers (the user's mis-clicks).
func cleanFixture(t *testing.T) (*feature.Space, []int) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"temp", engine.TFloat, "volt", engine.TFloat))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		tbl.MustAppendRow(engine.NewFloat(110+rng.NormFloat64()), engine.NewFloat(2.3+rng.NormFloat64()*0.01))
	}
	for i := 0; i < 30; i++ {
		tbl.MustAppendRow(engine.NewFloat(68+rng.NormFloat64()), engine.NewFloat(2.65+rng.NormFloat64()*0.01))
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

func TestCleanKMeansDropsStragglers(t *testing.T) {
	sp, dprime := cleanFixture(t)
	kept := Clean(sp, dprime, Options{Method: "kmeans"})
	if len(kept) != 20 {
		t.Fatalf("kept %d of %d, want 20", len(kept), len(dprime))
	}
	for _, r := range kept {
		if r >= 20 {
			t.Errorf("straggler %d survived", r)
		}
	}
}

func TestCleanBayes(t *testing.T) {
	sp, dprime := cleanFixture(t)
	var background []int
	for i := 25; i < 50; i++ {
		background = append(background, i)
	}
	kept := Clean(sp, dprime, Options{Method: "bayes", Background: background})
	// Bayes should reject most accidental inliers (they look like
	// background).
	stragglers := 0
	for _, r := range kept {
		if r >= 20 {
			stragglers++
		}
	}
	if stragglers > 2 {
		t.Errorf("bayes kept %d stragglers", stragglers)
	}
	// Without background, bayes is a no-op.
	same := Clean(sp, dprime, Options{Method: "bayes"})
	if len(same) != len(dprime) {
		t.Error("bayes without background should be a no-op")
	}
}

func TestCleanNoneAndSmallInputs(t *testing.T) {
	sp, dprime := cleanFixture(t)
	if got := Clean(sp, dprime, Options{Method: "none"}); len(got) != len(dprime) {
		t.Error("method none should keep everything")
	}
	small := []int{1, 2, 3}
	if got := Clean(sp, small, Options{}); len(got) != 3 {
		t.Error("tiny D' should be kept whole")
	}
}

func TestCleanMinKeepGuard(t *testing.T) {
	// A D' that is a 50/50 mix: the guard must refuse to discard half.
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TFloat))
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow(engine.NewFloat(0))
	}
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow(engine.NewFloat(100))
	}
	sp := feature.NewSpace(tbl, feature.Options{})
	dprime := make([]int, 20)
	for i := range dprime {
		dprime[i] = i
	}
	kept := Clean(sp, dprime, Options{Method: "kmeans", MinKeepFrac: 0.75})
	if len(kept) != 20 {
		t.Errorf("guard failed: kept %d", len(kept))
	}
}

func TestNaiveBayesPredict(t *testing.T) {
	sp, _ := cleanFixture(t)
	var pos, neg []int
	for i := 0; i < 20; i++ {
		pos = append(pos, i)
	}
	for i := 20; i < 50; i++ {
		neg = append(neg, i)
	}
	nb := TrainNaiveBayes(sp.Gather(append(pos, neg...)), len(pos))
	// A hot, low-voltage row is positive; a cool one negative.
	if !nb.Predict(0) {
		t.Error("anomalous row classified negative")
	}
	if nb.Predict(30) {
		t.Error("clean row classified positive")
	}
}
