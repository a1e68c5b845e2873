package subgroup

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
	rng := rand.New(rand.NewSource(9))
	labels := make([]bool, 0, n)
	cities := []string{"A", "B", "C", "D", "E"}
	var rows [][]engine.Value
	for i := 0; i < n; i++ {
		pos := i%10 == 0
		volt := 2.5 + rng.Float64()*0.3
		if pos {
			volt = 2.2 + rng.Float64()*0.15
		}
		rows = append(rows, []engine.Value{
			engine.NewInt(rng.Int63n(54)),
			engine.NewFloat(volt),
			engine.NewFloat(30 + rng.NormFloat64()*5),
			engine.NewString(cities[i%5])})
		labels = append(labels, pos)
	}
	tbl, err := tbl.AppendBatch(rows)
	if err != nil {
		b.Fatal(err)
	}
	return feature.NewSpace(tbl, feature.Options{}).Discretize(), labels
}

// BenchmarkDiscover measures the rule search at pipeline-like
// population sizes.
func BenchmarkDiscover(b *testing.B) {
	for _, n := range []int{4_000, 16_000} {
		n := n
		b.Run(fmt.Sprintf("pop=%d", n), func(b *testing.B) {
			sp, labels := benchFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if Discover(sp, labels) == nil {
					b.Fatal("no rule")
				}
			}
		})
	}
}
