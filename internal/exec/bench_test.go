package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/vfs/vfstest"
)

// dbOf is a database of one table t of schema, rows rows of row's.
func dbOf(schema engine.Schema, rows int, row func(i int) []engine.Value) *engine.DB {
	vals := make([][]engine.Value, rows)
	for i := range vals {
		vals[i] = row(i)
	}
	db := engine.NewDB()
	db.Register(must(engine.MustNewTable("t", schema).AppendBatch(vals)))
	return db
}

func benchDB(rows int) *engine.DB {
	return dbOf(engine.NewSchema("k", engine.TInt, "cat", engine.TString, "v", engine.TFloat), rows, func(i int) []engine.Value {
		return []engine.Value{engine.NewInt(int64(i % 100)), engine.NewString([]string{"a", "b", "c", "d"}[i%4]), engine.NewFloat(float64(i % 997))}
	})
}

// computedBenchDB is a 100k-row table for the computed-key scan: ts
// advances 31 s every repeat rows, so each source cell of the key
// bucket(epoch(ts), 1800) occurs repeat times in a row (54 is the Intel
// trace's motes per epoch; 1 is a source that never repeats).
func computedBenchDB(repeat int) *engine.DB {
	return dbOf(engine.NewSchema("ts", engine.TTime, "v", engine.TFloat), 100_000, func(i int) []engine.Value {
		return []engine.Value{engine.NewTimeUnix(1_078_000_000 + int64(i/repeat)*31), engine.NewFloat(float64(i % 997))}
	})
}

// BenchmarkGroupByScan measures the hash-aggregation scan — the
// engine's core loop; it records no lineage. The computed sub-benchmarks
// group on a kernel key whose source repeats 54× or never: a chunk
// kernel must speed up both (a per-distinct-cell key cache only the
// first).
func BenchmarkGroupByScan(b *testing.B) {
	for _, c := range []struct {
		name   string
		repeat int
	}{{"computed/repeating", 54}, {"computed/unique", 1}} {
		b.Run(c.name, func(b *testing.B) {
			benchSQL(b, computedBenchDB(c.repeat), "SELECT bucket(epoch(ts), 1800) AS w, avg(v), stddev(v) FROM t GROUP BY bucket(epoch(ts), 1800)")
		})
	}
	for _, rows := range []int{10_000, 100_000} {
		rows := rows
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchSQL(b, benchDB(rows), "SELECT k, avg(v), stddev(v) FROM t GROUP BY k")
			b.SetBytes(int64(rows))
		})
	}
}

func BenchmarkWhereFilter(b *testing.B) {
	benchSQL(b, benchDB(100_000), "SELECT cat, sum(v) FROM t WHERE v > 500 AND cat != 'd' GROUP BY cat")
}

// benchSQL times sql over db.
func benchSQL(b *testing.B, db *engine.DB, sql string) {
	b.ResetTimer()
	for range b.N {
		must(querySQL(b.Context(), db, sql))
	}
}

// BenchmarkLineageUnion is a zoom's lineage read: the union of 10
// suspect groups' lineage — the 10 widest temperature spreads — of the
// Figure 4 window query over 100k Intel rows. cached reads a result whose
// lineage is built; first builds it on a fresh result each iteration,
// the lineage pass a result's first reader pays.
func BenchmarkLineageUnion(b *testing.B) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 100_000, Seed: 1})
	stmt := must(sqlparse.Parse(datasets.IntelWindowSQL))
	run := func() *Result { return must(Run(b.Context(), tbl, stmt)) }
	res := run()
	std := func(ri int) float64 { v, _ := res.AggFloat(ri, 1); return v }
	suspects := seq(res.NumRows()) // every group a suspect
	slices.SortFunc(suspects, func(x, y int) int { return cmp.Compare(std(y), std(x)) })
	suspects = suspects[:10]
	read := func(b *testing.B, res *Result) {
		if got := res.Lineage(suspects); len(got) == 0 {
			b.Fatal("empty")
		}
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			read(b, res)
		}
	})
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			res := run()
			b.StartTimer()
			read(b, res)
		}
	})
}

// scanMix is two of the benchmark's scan_mix statements over 400k Intel
// rows: grouped (a computed window key, avg and stddev: runs of one
// window) and global (count/sum/min/max under a WHERE: one run a block).
var scanMix = []struct{ name, sql string }{
	{"grouped", "SELECT bucket(epoch(ts), 1800) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w"},
	{"global", "SELECT count(*) AS n, sum(temperature) AS total, min(temperature) AS lo, max(temperature) AS hi FROM readings WHERE humidity > 39.5"},
}

// BenchmarkScanMix runs the scanMix statements over 400k Intel rows:
// each resident, then all of them in turn out of core — stored on a
// MemFS and reopened, untimed, before every run behind a buffer pool a
// third of the table's size, so each run faults its chunks and builds
// its clause masks from a cold pool. make profile-scan profiles it.
func BenchmarkScanMix(b *testing.B) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 400_000, Seed: 1})
	stmts := make([]*sqlparse.SelectStmt, len(scanMix))
	for i, c := range scanMix {
		stmt := must(sqlparse.Parse(c.sql))
		stmts[i] = stmt
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(b.Context(), tbl, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	fs := vfstest.NewMemFS()
	st, err := store.Open("d", store.Options{SyncEvery: 1 << 30, FS: fs, Logf: func(string, ...any) {}}) // Close syncs
	if err == nil {
		err = st.CreateTable(tbl.Name(), tbl.Schema(), tbl.SegmentBits())
	}
	for lo := 0; err == nil && lo < tbl.NumRows(); lo += 1 << 14 {
		_, err = st.AppendColsCtx(context.Background(), tbl.Name(), tbl.Batch(lo, min(lo+1<<14, tbl.NumRows())))
	}
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	_, bytes := tbl.MemStats()
	b.Run("outofcore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := must(store.Open("d", oocOpts(fs, int64(bytes/3))))
			ooc := must(st.Eng().Table(tbl.Name()))
			b.StartTimer()
			for _, stmt := range stmts {
				if _, err := Run(b.Context(), ooc, stmt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			must(0, st.Close())
			b.StartTimer()
		}
	})
}
