// Custom error metric: the paper stresses that "the user's notion of
// error is often different than the pre-defined criteria". The Metric
// interface makes ε pluggable — this example debugs a *count* anomaly
// ("why do some days have absurdly many donations?") with a bespoke
// metric that penalizes deviation from a rolling expectation, something
// no stock metric expresses.
//
//	go run ./examples/custom_metric
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
)

// relDeviation is a user-defined ε: the summed *relative* deviation of
// each suspect value from an expected baseline, ignoring deviations
// under 25%. Both inflated and deflated counts are errors. Like every
// metric, it is a per-group term (0 for a NULL aggregate) and a combine.
type relDeviation struct {
	Expected float64
}

func (relDeviation) Name() string { return "reldev" }

func (m relDeviation) Term(v float64) float64 {
	if d := math.Abs(v-m.Expected) / m.Expected; m.Expected != 0 && d > 0.25 { // NaN fails the comparison
		return d - 0.25
	}
	return 0
}

func (relDeviation) Combine() errmetric.Combine { return errmetric.Sum }

func (m relDeviation) String() string { return fmt.Sprintf("reldev(expected=%g)", m.Expected) }

// The interface is verified at compile time.
var _ errmetric.Metric = relDeviation{}

func main() {
	// Inject a burst of duplicate-looking small donations on one day by
	// generating a spike with an unusual occupation signature.
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 100_000, Seed: 9})

	stmt, err := sqlparse.Parse(`SELECT day, count(*) AS n FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day`)
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

	// Typical day volume = median count.
	var counts []float64
	nCol := res.Table.Schema().ColIndex("n")
	for r := 0; r < res.Table.NumRows(); r++ {
		counts = append(counts, res.Table.Value(r, nCol).Float())
	}
	expected := errmetric.SuggestReference(counts)
	fmt.Printf("typical daily donation count: %.0f\n", expected)

	// Suspect: days with far more donations than typical (the
	// reattribution burst inflates counts around day 500).
	suspect, err := core.SuspectWhere(res, "n", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > expected*2.5
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(suspect) == 0 {
		log.Fatal("no inflated days found; try another seed")
	}
	fmt.Printf("S: %d days with >2.5x typical volume\n", len(suspect))

	dr, err := core.Debug(core.DebugRequest{
		Result:  res,
		AggItem: -1,
		Suspect: suspect,
		Metric:  relDeviation{Expected: expected}, // the custom ε
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε = %.2f; explanations under the custom metric:\n", dr.Eps)
	for i, e := range dr.Explanations {
		fmt.Printf("  %d. %s\n", i+1, e.Scored)
	}
	fmt.Println("\n(no D' was given: the pipeline bootstrapped candidates from leave-one-out influence alone)")
}
