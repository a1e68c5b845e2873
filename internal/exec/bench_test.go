package exec

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

func benchDB(rows int) *engine.DB {
	tbl := engine.MustNewTable("t", engine.NewSchema(
		"k", engine.TInt, "cat", engine.TString, "v", engine.TFloat))
	tbl.Grow(rows)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		tbl.MustAppendRow(
			engine.NewInt(int64(i%100)),
			engine.NewString(cats[i%len(cats)]),
			engine.NewFloat(float64(i%997)),
		)
	}
	db := engine.NewDB()
	db.Register(tbl)
	return db
}

// computedBenchDB is a 100k-row table for the computed-key scan: ts
// advances 31 s every repeat rows, so each source cell of the key
// bucket(epoch(ts), 1800) occurs repeat times in a row (54 is the Intel
// trace's motes per epoch; 1 is a source that never repeats).
func computedBenchDB(repeat int) *engine.DB {
	const rows = 100_000
	tbl := engine.MustNewTable("t", engine.NewSchema("ts", engine.TTime, "v", engine.TFloat))
	tbl.Grow(rows)
	for i := 0; i < rows; i++ {
		tbl.MustAppendRow(engine.NewTimeUnix(1_078_000_000+int64(i/repeat)*31), engine.NewFloat(float64(i%997)))
	}
	db := engine.NewDB()
	db.Register(tbl)
	return db
}

// BenchmarkGroupByScan measures the hash-aggregation scan with
// provenance capture — the engine's core loop. The computed sub-benchmarks
// group on a kernel key whose source repeats 54× or never: a chunk
// kernel must speed up both (a per-distinct-cell key cache only the
// first).
func BenchmarkGroupByScan(b *testing.B) {
	for _, c := range []struct {
		name   string
		repeat int
	}{{"computed/repeating", 54}, {"computed/unique", 1}} {
		b.Run(c.name, func(b *testing.B) {
			db := computedBenchDB(c.repeat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSQL(db, "SELECT bucket(epoch(ts), 1800) AS w, avg(v), stddev(v) FROM t GROUP BY bucket(epoch(ts), 1800)"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, rows := range []int{10_000, 100_000} {
		rows := rows
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := benchDB(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSQL(db, "SELECT k, avg(v), stddev(v) FROM t GROUP BY k"); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(rows))
		})
	}
}

func BenchmarkWhereFilter(b *testing.B) {
	db := benchDB(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSQL(db, "SELECT cat, sum(v) FROM t WHERE v > 500 AND cat != 'd' GROUP BY cat"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineageUnion(b *testing.B) {
	db := benchDB(100_000)
	res, err := RunSQL(db, "SELECT k, sum(v) FROM t GROUP BY k")
	if err != nil {
		b.Fatal(err)
	}
	suspects := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := res.Lineage(suspects); len(got) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkScanMix runs two of the benchmark's scan_mix statements over
// 400k Intel rows: grouped (a computed window key, avg and stddev: runs
// of one window) and global (count/sum/min/max under a WHERE: one run a
// block). make profile-scan profiles it.
func BenchmarkScanMix(b *testing.B) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 400_000, Seed: 1})
	for _, c := range []struct{ name, sql string }{
		{"grouped", "SELECT bucket(epoch(ts), 1800) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w"},
		{"global", "SELECT count(*) AS n, sum(temperature) AS total, min(temperature) AS lo, max(temperature) AS hi FROM readings WHERE humidity > 39.5"},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunOn(tbl, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
