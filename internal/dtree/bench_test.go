package dtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/feature"
)

func benchFixture(b *testing.B, n int) (*feature.Space, []bool) {
	b.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"mote", engine.TInt, "volt", engine.TFloat, "hum", engine.TFloat, "city", engine.TString))
	rng := rand.New(rand.NewSource(11))
	labels := make([]bool, 0, n)
	cities := []string{"A", "B", "C", "D"}
	var rows [][]engine.Value
	for i := 0; i < n; i++ {
		volt := 2.2 + rng.Float64()*0.6
		city := cities[rng.Intn(4)]
		pos := volt <= 2.4 && city == "A"
		rows = append(rows, []engine.Value{
			engine.NewInt(rng.Int63n(54)),
			engine.NewFloat(volt),
			engine.NewFloat(30 + rng.NormFloat64()*5),
			engine.NewString(city)})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		b.Fatal(err)
	}
	return feature.NewSpace(tbl, feature.Options{}).Discretize(), labels
}

// BenchmarkTrain measures one tree induction — the Predicate Enumerator
// runs one per Debug call.
func BenchmarkTrain(b *testing.B) {
	sp, labels := benchFixture(b, 16_000)
	for i := 0; i < b.N; i++ {
		if _, err := Train(sp, labels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainScaling(b *testing.B) {
	for _, n := range []int{4_000, 16_000, 64_000} {
		n := n
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			sp, labels := benchFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(sp, labels); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n))
		})
	}
}
