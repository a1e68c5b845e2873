// Quickstart: load a tiny table, run an aggregate query, notice a bad
// group, and ask DBWipes why — in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
)

func main() {
	// A toy sensor table: three sensors, one of which (id 3) reads hot.
	schema := engine.NewSchema(
		"sensor", engine.TInt,
		"room", engine.TString,
		"temp", engine.TFloat,
	)
	rows := make([][]engine.Value, 0, 200)
	for i := 0; i < 200; i++ {
		sensor := int64(1 + i%3)
		room := []string{"kitchen", "lab", "lounge"}[i%3]
		temp := 68.0 + float64(i%7)
		if sensor == 3 {
			temp = 120 + float64(i%5) // the broken sensor
		}
		rows = append(rows, []engine.Value{
			engine.NewInt(sensor),
			engine.NewString(room),
			engine.NewFloat(temp),
		})
	}
	readings, err := engine.MustNewTable("readings", schema).AppendBatch(rows)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Run an aggregate query (provenance is captured automatically).
	stmt, err := sqlparse.Parse("SELECT room, avg(temp) AS avg_temp FROM readings GROUP BY room")
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.Run(context.Background(), readings, stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("room        avg_temp")
	for i := 0; i < res.Table.NumRows(); i++ {
		fmt.Printf("%-10s  %.1f\n", res.Table.Value(i, 0).Str(), res.Table.Value(i, 1).Float())
	}

	// 2. Select the suspicious groups S: averages that look too hot.
	suspect, err := core.SuspectWhere(res, "avg_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 75
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsuspicious groups: %d\n", len(suspect))

	// 3. Debug: "these averages are too high; expected ~70".
	dr, err := core.Debug(core.DebugRequest{
		Result:  res,
		AggItem: -1,
		Suspect: suspect,
		Metric:  errmetric.TooHigh{C: 70},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε = %.1f; ranked explanations:\n", dr.Eps)
	for i, e := range dr.Explanations {
		fmt.Printf("  %d. %s (removes %.0f%% of the error, %d tuples)\n",
			i+1, e.Pred, 100*e.ErrImprovement, e.NumTuples)
	}

	// 4. Clean with the top predicate and re-run — "clean as you query".
	cleaned, err := core.CleanAndRequery(res, dr.Explanations[0].Pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter cleaning:")
	fmt.Println(core.Cleaned(res.Stmt, dr.Explanations[0].Pred).String())
	for i := 0; i < cleaned.Table.NumRows(); i++ {
		fmt.Printf("%-10s  %.1f\n", cleaned.Table.Value(i, 0).Str(), cleaned.Table.Value(i, 1).Float())
	}
}
