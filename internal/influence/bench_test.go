package influence

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/testgen"
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
	res, err := testgen.Query(b.Context(), db, "SELECT k, avg(v) FROM t GROUP BY k")
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkRank measures the full leave-one-out pass: O(|F|) — one
// metric term per tuple — plus one group scan per tuple that removes the
// last copy of a min or max; the paper's Preprocessor claim rests on this
// staying linear.
func BenchmarkRank(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		rows := rows
		b.Run(fmt.Sprintf("F=%d", rows), func(b *testing.B) {
			res := benchResult(b, rows)
			suspects := allGroups(res)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RankCtx(b.Context(), res, suspects, 0, errmetric.TooHigh{C: 100}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(rows))
		})
	}
}

func BenchmarkEpsWithoutRows(b *testing.B) {
	res := benchResult(b, 100_000)
	suspects := allGroups(res)
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
