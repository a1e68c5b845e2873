// Command dbwipes-cli is the terminal version of the DBWipes loop: run
// an aggregate query, see the result as an ASCII scatterplot, select
// suspicious groups with a condition, debug, and apply a predicate —
// all in one invocation.
//
// Example (the paper's FEC walkthrough):
//
//	dbwipes-cli -dataset fec \
//	  -sql "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day" \
//	  -suspect "total < 0" -metric "toolow(c=0)" -examples "amount < 0" -clean 0
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
	"repro/internal/viz"
)

func main() {
	dataset := flag.String("dataset", "intel", "intel, fec, or csv path via -csv")
	csvPath := flag.String("csv", "", "load this CSV as the table instead of a synthetic dataset")
	tableName := flag.String("table", "data", "table name for -csv")
	rows := flag.Int("rows", 100_000, "synthetic dataset size")
	seed := flag.Int64("seed", 1, "generator seed")
	sqlStr := flag.String("sql", "", "aggregate query (default: the dataset's demo query)")
	suspectCond := flag.String("suspect", "", "condition over result columns selecting S (e.g. \"total < 0\")")
	metricSpec := flag.String("metric", "", "error metric, e.g. toolow(c=0) or toohigh(c=70)")
	examplesCond := flag.String("examples", "", "condition over source columns selecting D' (e.g. \"amount < 0\")")
	clean := flag.Int("clean", -1, "apply the i'th ranked predicate and re-plot")
	noPlot := flag.Bool("noplot", false, "suppress ASCII plots")
	repl := flag.Bool("repl", false, "interactive session instead of one-shot flags")
	flag.Parse()

	db := engine.NewDB()
	switch {
	case *csvPath != "":
		t, err := engine.LoadCSVFile(*csvPath, *tableName)
		if err != nil {
			log.Fatalf("load csv: %v", err)
		}
		db.Register(t)
	case *dataset == "intel":
		t, _ := datasets.Intel(datasets.IntelConfig{Rows: *rows, Seed: *seed})
		db.Register(t)
		if *sqlStr == "" {
			*sqlStr = datasets.IntelWindowSQL
		}
	case *dataset == "fec":
		t, _ := datasets.FEC(datasets.FECConfig{Rows: *rows, Seed: *seed})
		db.Register(t)
		if *sqlStr == "" {
			*sqlStr = datasets.FECDailySQL("McCain")
		}
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}
	if *repl {
		if err := runREPL(db, os.Stdin, os.Stdout, *noPlot); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sqlStr == "" {
		log.Fatal("-sql required")
	}

	res, err := exec.RunSQL(db, *sqlStr)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("query: %s\n%d groups (scan: %d shards, %d key kernels, masked agg %v)\n\n",
		*sqlStr, res.NumRows(), res.Plan.Shards, res.Plan.KeyKernels, res.Plan.MaskedAgg)
	if !*noPlot {
		fmt.Println(plotResult(res, nil))
	}
	if *suspectCond == "" {
		return
	}

	suspect, err := selectSuspect(res, *suspectCond)
	if err != nil {
		log.Fatalf("suspect: %v", err)
	}
	fmt.Printf("S: %d suspicious groups match %q\n", len(suspect), *suspectCond)
	if len(suspect) == 0 {
		os.Exit(1)
	}
	if !*noPlot {
		fmt.Println(plotResult(res, suspect))
	}
	if *metricSpec == "" {
		return
	}
	metric, err := errmetric.ParseSpec(*metricSpec)
	if err != nil {
		log.Fatalf("metric: %v", err)
	}
	var examples []int
	if *examplesCond != "" {
		examples, err = core.ExamplesWhere(res, suspect, *examplesCond)
		if err != nil {
			log.Fatalf("examples: %v", err)
		}
		fmt.Printf("D': %d example tuples match %q\n", len(examples), *examplesCond)
	}

	dr, err := core.Debug(core.DebugRequest{
		Result: res, AggItem: -1, Suspect: suspect,
		Examples: examples, Metric: metric,
	})
	if err != nil {
		log.Fatalf("debug: %v", err)
	}
	fmt.Printf("\nε = %.2f over %d lineage tuples; ranked predicates:\n", dr.Eps, len(dr.F))
	for i, e := range dr.Explanations {
		fmt.Printf("  [%d] %s\n", i, e.Scored)
	}
	if *clean < 0 || *clean >= len(dr.Explanations) {
		return
	}

	pred := dr.Explanations[*clean].Pred
	cleaned, err := core.CleanAndRequery(res, pred)
	if err != nil {
		log.Fatalf("clean: %v", err)
	}
	fmt.Printf("\nafter cleaning with NOT(%s):\n%s\n", pred, core.Cleaned(res.Stmt, pred).String())
	if !*noPlot {
		fmt.Println(plotResult(cleaned, nil))
	}
}

// runCleaned parses sql, appends NOT (p) for every applied predicate,
// and executes it.
func runCleaned(db *engine.DB, sql string, applied []predicate.Predicate) (*exec.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return exec.RunCtx(context.Background(), db, core.Cleaned(stmt, applied...))
}

func selectSuspect(res *exec.Result, cond string) ([]int, error) {
	e, err := sqlparse.ParseExpr(cond)
	if err != nil {
		return nil, err
	}
	if err := e.Resolve(res.Table.Schema()); err != nil {
		return nil, err
	}
	return res.SelectRows(func(row []engine.Value) bool {
		ok, err := expr.EvalBool(e, row)
		return err == nil && ok
	}), nil
}

// plotResult draws result col 0 vs col of the first aggregate.
func plotResult(res *exec.Result, suspect []int) string {
	if res.Table.NumRows() == 0 {
		return "(empty result)"
	}
	yCol := 1
	if ords := res.AggOrdinals(); len(ords) > 0 {
		yCol = ords[0]
	}
	if yCol >= res.Table.NumCols() {
		yCol = res.Table.NumCols() - 1
	}
	inS := make(map[int]bool, len(suspect))
	for _, s := range suspect {
		inS[s] = true
	}
	p := viz.Plot{
		XLabel: res.Table.Schema()[0].Name,
		YLabel: res.Table.Schema()[yCol].Name,
		Width:  100, Height: 22,
	}
	for r := 0; r < res.Table.NumRows(); r++ {
		xv, yv := res.Table.Value(r, 0), res.Table.Value(r, yCol)
		if xv.IsNull() || yv.IsNull() {
			continue
		}
		cls := 0
		if inS[r] {
			cls = 1
		}
		p.Points = append(p.Points, viz.Point{X: xv.Float(), Y: yv.Float(), Class: cls})
	}
	return p.ASCII()
}
