// Sensor anomaly walkthrough — the paper's Figures 4 and 6 on the
// (synthetic) Intel Lab dataset:
//
//  1. plot avg/stddev of temperature in 30-minute windows,
//
//  2. highlight the suspiciously spread-out windows (S),
//
//  3. zoom into their raw tuples and highlight readings >100°F (D'),
//
//  4. get a ranked list of predicates — the winners blame the motes
//     with dying batteries (low voltage),
//
//  5. click the best predicate and watch the windows flatten.
//
//     go run ./examples/sensor_anomaly
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/viz"
)

func main() {
	db, truth := datasets.IntelDB(datasets.IntelConfig{Rows: 80_000, Seed: 11})
	fmt.Println("synthetic Intel Lab trace loaded; query:")
	fmt.Println(" ", datasets.IntelWindowSQL)

	stmt, err := sqlparse.Parse(datasets.IntelWindowSQL)
	if err != nil {
		log.Fatal(err)
	}
	src, err := db.Table(stmt.From)
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.Run(context.Background(), src, stmt)
	if err != nil {
		log.Fatal(err)
	}
	plotWindows(res, nil, "stddev(temperature) per 30-min window")

	// Figure 4, left: highlight high-stddev windows.
	suspect, err := core.SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S: %d windows with stddev > 10\n\n", len(suspect))

	// Figure 4, right: zoom in; D' = readings above 100F.
	dprime, err := core.ExamplesWhereCtx(context.Background(), res, suspect, "temperature > 100")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("D': %d readings above 100F inside the suspect windows\n\n", len(dprime))

	// Figure 6: the ranked predicates.
	dr, err := core.Debug(core.DebugRequest{
		Result:   res,
		AggItem:  -1, // avg_temp
		Suspect:  suspect,
		Examples: dprime,
		Metric:   errmetric.TooHigh{C: 70},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε = %.1f over %d lineage tuples; ranked predicates:\n", dr.Eps, len(dr.F))
	tr := datasets.NewTruth(truth)
	for i, e := range dr.Explanations {
		matched := e.Pred.MatchingRows(res.Source, dr.F)
		p, r, f1 := tr.Score(matched, dr.F)
		fmt.Printf("  %d. %s\n     score=%.3f Δε=%.0f%% tuples=%d  vs ground truth P/R/F1=%.2f/%.2f/%.2f\n",
			i+1, e.Pred, e.Score, 100*e.ErrImprovement, e.NumTuples, p, r, f1)
	}

	// Click the top predicate.
	cleaned, err := core.CleanAndRequery(res, dr.Explanations[0].Pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter cleaning with the top predicate:")
	plotWindows(cleaned, nil, "stddev(temperature) per 30-min window (cleaned)")
}

func plotWindows(res *exec.Result, suspect []int, title string) {
	stdCol := res.Table.Schema().ColIndex("std_temp")
	inS := map[int]bool{}
	for _, s := range suspect {
		inS[s] = true
	}
	p := viz.Plot{Title: title, XLabel: "w30", YLabel: "stddev", Width: 96, Height: 16}
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, stdCol)
		if v.IsNull() {
			continue
		}
		cls := 0
		if inS[r] {
			cls = 1
		}
		p.Points = append(p.Points, viz.Point{X: res.Table.Value(r, 0).Float(), Y: v.Float(), Class: cls})
	}
	fmt.Println(p.ASCII())
}
