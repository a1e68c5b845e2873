package feature_test

import (
	"strings"
	"testing"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/subgroup"
)

// A space that was only profiled has neither thresholds nor bins. A
// learner handed one must say so — an error from the tree trainer, a
// panic from the selector vocabulary, which has no error to return —
// rather than train on "no numeric split points" as if the data had
// none. The same space trains once Discretize has run.
func TestLearnersRefuseProfileOnlySpace(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewSchema("x", engine.TFloat, "s", engine.TString))
	labels := make([]bool, 40)
	var rows [][]engine.Value
	for i := range labels {
		rows = append(rows, []engine.Value{engine.NewFloat(float64(i)), engine.NewString([]string{"a", "b"}[i%2])})
		labels[i] = i >= 30
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sp := feature.NewSpace(tbl, feature.Options{})

	if _, err := dtree.Train(sp, labels); err == nil || !strings.Contains(err.Error(), "Discretize") {
		t.Fatalf("dtree.Train on a profile-only space: err = %v, want one naming Discretize", err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Discretize") {
				t.Fatalf("subgroup.Discover on a profile-only space: recovered %q, want a panic naming Discretize", msg)
			}
		}()
		subgroup.Discover(sp, labels)
	}()

	sp.Discretize()
	tree, err := dtree.Train(sp, labels)
	if err != nil || len(tree.PositivePaths()) == 0 {
		t.Fatalf("dtree.Train on the discretized space: %v, %d positive paths", err, len(tree.PositivePaths()))
	}
	if subgroup.Discover(sp, labels) == nil {
		t.Fatal("subgroup.Discover on the discretized space found nothing")
	}
}
