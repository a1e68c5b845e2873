package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// TestHomogeneousGroup exercises the case where an entire group is bad:
// the pipeline must sample external contrast tuples to describe it.
func TestHomogeneousGroup(t *testing.T) {
	schema := engine.NewSchema("sensor", engine.TInt, "room", engine.TString, "temp", engine.TFloat)
	readings := engine.MustNewTable("readings", schema)
	var rows [][]engine.Value
	for i := 0; i < 200; i++ {
		sensor := int64(1 + i%3)
		room := []string{"kitchen", "lab", "lounge"}[i%3]
		temp := 68.0 + float64(i%7)
		if sensor == 3 {
			temp = 120 + float64(i%5)
		}
		rows = append(rows, []engine.Value{engine.NewInt(sensor), engine.NewString(room), engine.NewFloat(temp)})
	}
	readings, err := readings.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.Register(readings)
	res, err := exec.RunSQL(db, "SELECT room, avg(temp) AS avg_temp FROM readings GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	suspect, _ := SuspectWhere(res, "avg_temp", func(v engine.Value) bool { return !v.IsNull() && v.Float() > 75 })
	fmt.Println("suspect:", suspect)
	dr, err := Debug(DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Metric: errmetric.TooHigh{C: 70}})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("eps:", dr.Eps, "F:", len(dr.F), "dprime:", len(dr.DPrime), "cands:", dr.Candidates)
	for i, e := range dr.Explanations {
		fmt.Printf("#%d %s\n", i, e.Scored)
	}
	if len(dr.Explanations) == 0 {
		t.Fatal("no explanations")
	}
}
