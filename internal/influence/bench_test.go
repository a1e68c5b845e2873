package influence

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

func benchResult(b *testing.B, rows int) *exec.Result {
	b.Helper()
	tbl := engine.MustNewTable("t", engine.NewSchema("k", engine.TInt, "v", engine.TFloat))
	var vals [][]engine.Value
	for i := 0; i < rows; i++ {
		vals = append(vals, []engine.Value{engine.NewInt(int64(i % 10)), engine.NewFloat(float64(i % 503))})
	}
	tbl, err := tbl.AppendBatch(vals)
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(tbl)
	res, err := exec.RunSQL(db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkRank measures the full leave-one-out pass: the paper's
// O(|F|) Preprocessor claim rests on this staying linear.
func BenchmarkRank(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		rows := rows
		b.Run(fmt.Sprintf("F=%d", rows), func(b *testing.B) {
			res := benchResult(b, rows)
			suspects := res.AllRows()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Rank(res, suspects, 0, errmetric.TooHigh{C: 100}, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(rows))
		})
	}
}

func BenchmarkEpsWithoutRows(b *testing.B) {
	res := benchResult(b, 100_000)
	suspects := res.AllRows()
	removed := make([]int, 0, 1000)
	for r := 0; r < 100_000; r += 100 {
		removed = append(removed, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EpsWithoutRows(res, suspects, 0, errmetric.TooHigh{C: 100}, removed); err != nil {
			b.Fatal(err)
		}
	}
}
