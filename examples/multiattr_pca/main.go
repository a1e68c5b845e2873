// Multi-attribute group-by + PCA: the paper (§2.2.1) notes that when a
// query groups by more than two attributes, the dashboard lets the user
// pick two of them to plot — and proposes "plotting the two largest
// principal components against each other" as a richer view. This
// example runs a two-attribute group-by over the Intel data (mote ×
// hour), projects the per-group aggregate vectors with PCA, and shows
// that the failing motes' groups separate cleanly in PC space.
//
//	go run ./examples/multiattr_pca
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
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 80_000, Seed: 13})
	sql := `SELECT moteid, bucket(epoch(ts), 3600) AS hr,
	               avg(temperature) AS avg_temp,
	               avg(voltage) AS avg_volt,
	               stddev(temperature) AS std_temp
	        FROM readings
	        GROUP BY moteid, bucket(epoch(ts), 3600)`
	stmt, err := sqlparse.Parse(sql)
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
	fmt.Printf("%d (mote × hour) groups with 3 aggregates each\n\n", res.Table.NumRows())

	// Project every group's (avg_temp, avg_volt, std_temp) vector onto
	// the two largest principal components.
	proj, explained, err := core.PCAGroups(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCA explained variance: PC1=%.0f%% PC2=%.0f%%\n",
		100*explained[0], 100*explained[1])

	// Color the groups by whether their avg temperature is impossible.
	tempCol := res.Table.Schema().ColIndex("avg_temp")
	p := viz.Plot{
		Title:  "groups in PC space (# = avg_temp > 90F — the failing motes separate)",
		XLabel: "PC1", YLabel: "PC2", Width: 96, Height: 20,
	}
	anomalous := 0
	for r := 0; r < res.Table.NumRows(); r++ {
		cls := 0
		v := res.Table.Value(r, tempCol)
		if !v.IsNull() && v.Float() > 90 {
			cls = 1
			anomalous++
		}
		p.Points = append(p.Points, viz.Point{X: proj[r][0], Y: proj[r][1], Class: cls})
	}
	fmt.Println(p.ASCII())
	fmt.Printf("%d anomalous groups highlighted\n\n", anomalous)

	// The PCA view is a selection aid; the debug flow is unchanged.
	suspect, err := core.SuspectWhere(res, "avg_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 90
	})
	if err != nil {
		log.Fatal(err)
	}
	dr, err := core.Debug(core.DebugRequest{
		Result:  res,
		AggItem: -1,
		Suspect: suspect,
		Metric:  errmetric.TooHigh{C: 70},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("why are those groups hot?")
	for i, e := range dr.Explanations[:minInt(3, len(dr.Explanations))] {
		fmt.Printf("  %d. %s\n", i+1, e.Scored)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
