package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// TestDebugOutOfCore runs the full Debug pipeline against a table
// served out-of-core through a buffer pool far smaller than one
// decoded chunk — the configuration where any per-row transient pin in
// a hot loop degrades to re-decoding the chunk per row. The wall-time
// bound is generous (resident Debug on this table is ~100ms); it
// exists to catch quadratic regressions, which overshoot it by minutes.
func TestDebugOutOfCore(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}
	schema := engine.NewSchema("ts", engine.TTime, "sensor", engine.TInt,
		"temperature", engine.TFloat, "voltage", engine.TFloat)

	st, err := store.Open(dir, store.Options{SyncEvery: 256, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	// One full 64Ki-row default segment plus a tail: the sealed chunk
	// (~0.5 MB/column decoded) dwarfs the 64 KiB pool below.
	const nrows = 80_000
	if err := st.CreateTable("readings", schema, engine.DefaultSegmentBits); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for lo := 0; lo < nrows; lo += 4096 {
		rows := make([][]engine.Value, 4096)
		for i := range rows {
			r := lo + i
			temp := 60 + float64(r%97)*0.1
			if r%50 == 3 && r > nrows/2 { // hot sensor 3 in the back half
				temp = 120 + float64(r%13)
			}
			rows[i] = []engine.Value{
				engine.NewTimeUnix(base.Add(time.Duration(r) * time.Second).Unix()),
				engine.NewInt(int64(r % 50)),
				engine.NewFloat(temp),
				engine.NewFloat(2.5 + float64(r%11)*0.01),
			}
		}
		if _, err := st.Append("readings", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(dir, store.Options{SyncEvery: 256, Logf: quiet, MaxResidentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.Eng().Table("readings")
	if err != nil {
		t.Fatal(err)
	}

	stmt, err := sqlparse.Parse(
		"SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp " +
			"FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	var suspect []int
	for i := 0; i < res.Table.NumRows(); i++ {
		if v := res.Table.Value(i, 2); !v.IsNull() && v.Float() > 5 {
			suspect = append(suspect, i)
		}
	}
	if len(suspect) == 0 {
		t.Fatal("fixture produced no suspect windows")
	}

	metric, err := errmetric.New("toohigh", map[string]float64{"c": 65})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	dr, err := core.Debug(core.DebugRequest{
		Result:  res,
		AggItem: -1,
		Suspect: suspect,
		Metric:  metric,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(dr.Explanations) == 0 {
		t.Fatal("no explanations ranked")
	}
	t.Logf("debug: %d explanations in %v (top: %s)", len(dr.Explanations), elapsed, dr.Explanations[0].Pred)
	if elapsed > 30*time.Second {
		t.Fatalf("out-of-core Debug took %v — a per-row transient pin is re-decoding chunks", elapsed)
	}
	if st.PoolPinned() != 0 {
		t.Fatalf("%d chunks pinned after Debug", st.PoolPinned())
	}
}
