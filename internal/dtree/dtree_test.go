package dtree

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/feature"
)

// plantedConcept builds a table whose positive class is exactly
// (volt <= 2.4 AND city = 'LAB').
func plantedConcept(t *testing.T, n int) (*feature.Space, []bool) {
	t.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "volt", engine.TFloat, "city", engine.TString))
	rng := rand.New(rand.NewSource(4))
	labels := make([]bool, 0, n)
	cities := []string{"LAB", "HALL", "ROOF"}
	var rows [][]engine.Value
	for i := 0; i < n; i++ {
		city := cities[rng.Intn(3)]
		volt := 2.2 + rng.Float64()*0.6
		mote := rng.Int63n(60)
		pos := volt <= 2.4 && city == "LAB"
		rows = append(rows, []engine.Value{engine.NewInt(mote), engine.NewFloat(volt), engine.NewString(city)})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	return feature.NewSpace(tbl, feature.Options{}).Discretize(), labels
}

// predictsPositive reports whether one of the tree's positive paths —
// what Debug ranks — matches the table row.
func predictsPositive(tree *Tree, row int) bool {
	for _, path := range tree.PositivePaths() {
		if path.Pred.MatchesRow(tree.Space.Table, row) {
			return true
		}
	}
	return false
}

// trainAccuracy is the accuracy of the tree's positive paths on the
// frame it was trained on.
func trainAccuracy(tree *Tree, labels []bool) float64 {
	correct := 0
	for i, r := range tree.Space.Frame.Rows {
		if predictsPositive(tree, r) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func TestTreeLearnsPlantedConcept(t *testing.T) {
	t.Run("gini", func(t *testing.T) {
		sp, labels := plantedConcept(t, 600)
		tree, err := Train(sp, labels)
		if err != nil {
			t.Fatal(err)
		}
		if acc := trainAccuracy(tree, labels); acc < 0.95 {
			t.Errorf("train accuracy %.2f", acc)
		}
		paths := tree.PositivePaths()
		if len(paths) == 0 {
			t.Fatal("no positive paths")
		}
		// The best path should reference volt and city.
		hasVolt, hasCity := false, false
		for _, c := range paths[0].Pred.Clauses {
			if c.Col == "volt" {
				hasVolt = true
			}
			if c.Col == "city" {
				hasCity = true
			}
		}
		if !hasVolt || !hasCity {
			t.Errorf("top path %s misses concept attrs", paths[0].Pred)
		}
	})
}

// Property-ish: the positive paths describe their leaves exactly — on
// the training rows each path matches the rows routed to its leaf (its
// count and its purity), and no row matches two paths.
func TestPathsConsistentWithPredictions(t *testing.T) {
	sp, labels := plantedConcept(t, 400)
	tree, err := Train(sp, labels)
	if err != nil {
		t.Fatal(err)
	}
	posOf := make(map[int]int, len(sp.Frame.Rows))
	for i, r := range sp.Frame.Rows {
		posOf[r] = i
	}
	claimed := make(map[int]bool)
	for _, path := range tree.PositivePaths() {
		matched := path.Pred.MatchingRows(sp.Table, sp.Frame.Rows)
		if len(matched) != path.N {
			t.Errorf("path %s matches %d training rows, its leaf holds %d", path.Pred, len(matched), path.N)
			continue
		}
		pos := 0
		for _, r := range matched {
			if claimed[r] {
				t.Errorf("row %d matches two positive paths", r)
			}
			claimed[r] = true
			if labels[posOf[r]] {
				pos++
			}
		}
		if purity := float64(pos) / float64(len(matched)); purity != path.Purity {
			t.Errorf("path %s: purity %v over its matched rows, leaf says %v", path.Pred, purity, path.Purity)
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	sp, labels := plantedConcept(t, 300)
	tree, err := Train(sp, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tree.PositivePaths() {
		if p.Pred.Len() > maxDepth {
			t.Errorf("path longer than depth: %s", p.Pred)
		}
	}
}

func TestMinLeaf(t *testing.T) {
	sp, labels := plantedConcept(t, 200)
	tree, err := Train(sp, labels)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			if n.N < minLeaf {
				t.Errorf("leaf with %d examples < minLeaf", n.N)
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestPureInputMakesLeaf(t *testing.T) {
	sp, _ := plantedConcept(t, 100)
	all := make([]bool, len(sp.Frame.Rows))
	for i := range all {
		all[i] = true
	}
	tree, err := Train(sp, all)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf || !tree.Root.Positive || tree.Root.Purity != 1 {
		t.Errorf("pure input should be a single positive leaf: %+v", tree.Root)
	}
	// TRUE path (root leaf) is excluded from PositivePaths' predicates?
	// No: a root-leaf path is the TRUE predicate; callers filter it.
	paths := tree.PositivePaths()
	if len(paths) != 1 || !paths[0].Pred.IsTrue() {
		t.Errorf("paths: %+v", paths)
	}
}

func TestTrainErrors(t *testing.T) {
	sp, labels := plantedConcept(t, 10)
	if _, err := Train(sp, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Train(sp, labels[:5]); err == nil {
		t.Error("label mismatch accepted")
	}
}
