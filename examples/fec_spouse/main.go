// FEC walkthrough — the paper's §3.2 data-journalist story and Figure 7:
// McCain's daily donation totals show a strange negative spike around
// day 500. Debugging it surfaces a predicate referencing the memo field
// "REATTRIBUTION TO SPOUSE"; clicking it removes the negative mass.
//
//	go run ./examples/fec_spouse
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/viz"
)

func main() {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 120_000, Seed: 5})
	sql := datasets.FECDailySQL("McCain")
	fmt.Println("query:", sql)

	res, err := exec.RunSQL(db, sql)
	if err != nil {
		log.Fatal(err)
	}
	plotDaily(res, "Figure 7: McCain total received donations per day")

	// The journalist highlights the negative days.
	suspect, err := core.SuspectWhere(res, "total", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() < 0
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S: %d days with negative totals\n", len(suspect))

	// She zooms in, sees negative donations, highlights them...
	dprime, err := core.ExamplesWhere(res, suspect, "amount < 0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("D': %d negative donations in those days\n", len(dprime))

	// ...picks "values are too low" and clicks debug!
	dr, err := core.Debug(core.DebugRequest{
		Result:   res,
		AggItem:  -1,
		Suspect:  suspect,
		Examples: dprime,
		Metric:   errmetric.TooLow{C: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranked predicates:")
	for i, e := range dr.Explanations {
		fmt.Printf("  %d. %s\n", i+1, e.Scored)
	}

	// The REATTRIBUTION TO SPOUSE predicate appears; she clicks it.
	pick := 0
	for i, e := range dr.Explanations {
		if strings.Contains(e.Pred.String(), datasets.MemoReattribution) {
			pick = i
			break
		}
	}
	pred := dr.Explanations[pick].Pred
	fmt.Printf("\nclicking predicate #%d: %s\n", pick+1, pred)
	cleaned, err := core.CleanAndRequery(res, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("updated query:", core.Cleaned(res.Stmt, pred).String())
	plotDaily(cleaned, "after cleaning: the negative spike is gone")
}

func plotDaily(res *exec.Result, title string) {
	p := viz.Plot{Title: title, XLabel: "campaign day", YLabel: "sum(amount)", Width: 96, Height: 18}
	for r := 0; r < res.Table.NumRows(); r++ {
		tot := res.Table.Value(r, 1)
		if tot.IsNull() {
			continue
		}
		cls := 0
		if tot.Float() < 0 {
			cls = 1
		}
		p.Points = append(p.Points, viz.Point{X: res.Table.Value(r, 0).Float(), Y: tot.Float(), Class: cls})
	}
	fmt.Println(p.ASCII())
}
