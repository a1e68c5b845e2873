// Command experiments regenerates every figure of the paper and the
// quantitative evaluation.
//
// Experiment ids:
//
//	F4  — Figure 4: avg/stddev temperature per 30-min window (Intel)
//	F4z — Figure 4 (right): zoom into suspect windows' raw tuples
//	F6  — Figure 6: ranked predicates for the Intel sensor query
//	F7  — Figure 7: McCain's daily donation totals with negative spike
//	W1  — §3.2 walkthrough: debug + clean the reattribution anomaly
//	E1  — explanation quality vs baselines (precision/recall/F1)
//	E2  — Debug latency scaling vs dataset size
//	E3  — splitting-criterion ablation (gini/entropy/gainratio)
//	E4  — subgroup beam width + D' cleaner ablations
//	E5  — leave-one-out influence ranking quality
//	E6  — ranker-term ablation (pruning / merging / excess penalty)
//
// Usage:
//
//	experiments [-exp all|F4,F6,...] [-rows 100000] [-seed 7] [-svg figures/]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/influence"
	"repro/internal/ranker"
	"repro/internal/subgroup"
	"repro/internal/viz"
)

type env struct {
	rows   int
	seed   int64
	svgDir string
	w      io.Writer
}

type experiment struct {
	id, title string
	run       func(*env) error
}

var experimentList = []experiment{
	{"F4", "Figure 4 (left): avg & stddev of temperature per 30-min window", runF4},
	{"F4z", "Figure 4 (right): zoom into suspicious windows", runF4z},
	{"F6", "Figure 6: ranked predicates for the Intel sensor query", runF6},
	{"F7", "Figure 7: McCain total donations per day", runF7},
	{"W1", "Walkthrough: debug + clean the FEC reattribution anomaly", runW1},
	{"E1", "Explanation quality: ranked provenance vs baselines", runE1},
	{"E2", "Debug latency scaling", runE2},
	{"E3", "Splitting-criterion ablation", runE3},
	{"E4", "Beam width and D'-cleaning ablations", runE4},
	{"E5", "Leave-one-out influence ranking quality", runE5},
	{"E6", "Ranker-term ablation: pruning / merging / excess penalty", runE6},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or all")
	rows := flag.Int("rows", 100_000, "base dataset size")
	seed := flag.Int64("seed", 7, "generator seed")
	svgDir := flag.String("svg", "", "write figure SVGs into this directory")
	flag.Parse()

	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	e := &env{rows: *rows, seed: *seed, svgDir: *svgDir, w: os.Stdout}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, x := range experimentList {
		if len(want) > 0 && !want[strings.ToUpper(x.id)] {
			continue
		}
		fmt.Fprintf(e.w, "\n================================================================\n")
		fmt.Fprintf(e.w, "%s — %s\n", x.id, x.title)
		fmt.Fprintf(e.w, "================================================================\n")
		start := time.Now()
		if err := x.run(e); err != nil {
			fmt.Fprintf(e.w, "FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(e.w, "[%s completed in %v]\n", x.id, time.Since(start).Round(time.Millisecond))
	}
}

// ---------------------------------------------------------------------
// shared flows

type intelFlow struct {
	db      *engine.DB
	truth   *datasets.Truth
	res     *exec.Result
	suspect []int
	dprime  []int
}

func intelSetup(rows int, seed int64) (*intelFlow, error) {
	db, labels := datasets.IntelDB(datasets.IntelConfig{Rows: rows, Seed: seed})
	res, err := exec.RunSQL(db, datasets.IntelWindowSQL)
	if err != nil {
		return nil, err
	}
	suspect, err := core.SuspectWhere(res, "std_temp", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() > 10
	})
	if err != nil {
		return nil, err
	}
	dprime, err := core.ExamplesWhere(res, suspect, "temperature > 100")
	if err != nil {
		return nil, err
	}
	return &intelFlow{db: db, truth: datasets.NewTruth(labels), res: res, suspect: suspect, dprime: dprime}, nil
}

func (f *intelFlow) debug(opt core.Options) (*core.DebugResult, error) {
	return core.Debug(core.DebugRequest{
		Result: f.res, AggItem: -1, Suspect: f.suspect,
		Examples: f.dprime, Metric: errmetric.TooHigh{C: 70}, Opt: opt,
	})
}

type fecFlow struct {
	db      *engine.DB
	truth   *datasets.Truth
	res     *exec.Result
	suspect []int
	dprime  []int
}

func fecSetup(rows int, seed int64) (*fecFlow, error) {
	db, labels := datasets.FECDB(datasets.FECConfig{Rows: rows, Seed: seed})
	res, err := exec.RunSQL(db, datasets.FECDailySQL("McCain"))
	if err != nil {
		return nil, err
	}
	suspect, err := core.SuspectWhere(res, "total", func(v engine.Value) bool {
		return !v.IsNull() && v.Float() < 0
	})
	if err != nil {
		return nil, err
	}
	dprime, err := core.ExamplesWhere(res, suspect, "amount < 0")
	if err != nil {
		return nil, err
	}
	return &fecFlow{db: db, truth: datasets.NewTruth(labels), res: res, suspect: suspect, dprime: dprime}, nil
}

func (f *fecFlow) debug(opt core.Options) (*core.DebugResult, error) {
	return core.Debug(core.DebugRequest{
		Result: f.res, AggItem: -1, Suspect: f.suspect,
		Examples: f.dprime, Metric: errmetric.TooLow{C: 0}, Opt: opt,
	})
}

func writeSVG(e *env, name string, p *viz.Plot) {
	if e.svgDir == "" {
		return
	}
	path := filepath.Join(e.svgDir, name)
	if err := os.WriteFile(path, []byte(p.SVG()), 0o644); err != nil {
		fmt.Fprintf(e.w, "(svg write failed: %v)\n", err)
		return
	}
	fmt.Fprintf(e.w, "(wrote %s)\n", path)
}

func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(header)
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
}

// ---------------------------------------------------------------------
// F4

func runF4(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	res := f.res
	inS := map[int]bool{}
	for _, s := range f.suspect {
		inS[s] = true
	}
	avgPlot := viz.Plot{Title: "avg(temperature) per 30-min window", XLabel: "w30 (unix sec)", YLabel: "avg temp (F)", Width: 100, Height: 20}
	stdPlot := viz.Plot{Title: "stddev(temperature) per 30-min window (suspects marked #)", XLabel: "w30 (unix sec)", YLabel: "stddev temp", Width: 100, Height: 20}
	var maxStd float64
	for r := 0; r < res.Table.NumRows(); r++ {
		x := res.Table.Value(r, 0).Float()
		avg := res.Table.Value(r, 1)
		std := res.Table.Value(r, 2)
		if !avg.IsNull() {
			avgPlot.Points = append(avgPlot.Points, viz.Point{X: x, Y: avg.Float()})
		}
		if !std.IsNull() {
			cls := 0
			if inS[r] {
				cls = 1
			}
			stdPlot.Points = append(stdPlot.Points, viz.Point{X: x, Y: std.Float(), Class: cls})
			if std.Float() > maxStd {
				maxStd = std.Float()
			}
		}
	}
	fmt.Fprintln(e.w, avgPlot.ASCII())
	fmt.Fprintln(e.w, stdPlot.ASCII())
	fmt.Fprintf(e.w, "windows: %d   suspect (stddev>10): %d   max stddev: %.1f\n",
		res.Table.NumRows(), len(f.suspect), maxStd)
	fmt.Fprintf(e.w, "paper shape: a distinct subset of windows with stddev far above the rest → %v\n",
		len(f.suspect) > 0 && len(f.suspect) < res.Table.NumRows()/2)
	writeSVG(e, "fig4_left_avg.svg", &avgPlot)
	writeSVG(e, "fig4_left_std.svg", &stdPlot)
	return nil
}

func runF4z(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	lineage := f.res.Lineage(f.suspect)
	src := f.res.Source
	tempCol := src.Schema().ColIndex("temperature")
	zoom := viz.Plot{Title: "raw temperature readings in suspect windows (D' = >100F marked #)", XLabel: "ts", YLabel: "temperature", Width: 100, Height: 20}
	tsCol := src.Schema().ColIndex("ts")
	over100 := 0
	for _, r := range lineage {
		tv := src.Value(r, tempCol)
		if tv.IsNull() {
			continue
		}
		cls := 0
		if tv.Float() > 100 {
			cls = 1
			over100++
		}
		zoom.Points = append(zoom.Points, viz.Point{X: src.Value(r, tsCol).Float(), Y: tv.Float(), Class: cls})
	}
	fmt.Fprintln(e.w, zoom.ASCII())
	p, rr, f1 := f.truth.Score(f.dprime, lineage)
	fmt.Fprintf(e.w, "lineage tuples: %d   readings >100F: %d\n", len(lineage), over100)
	fmt.Fprintf(e.w, "D' (temp>100) vs ground truth within lineage: precision=%.2f recall=%.2f f1=%.2f\n", p, rr, f1)
	writeSVG(e, "fig4_right_zoom.svg", &zoom)
	return nil
}

func runF6(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	dr, err := f.debug(core.Options{})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	var rows [][]string
	for i, x := range dr.Explanations {
		matched := x.Pred.MatchingRows(f.res.Source, dr.F)
		p, r, f1 := f.truth.Score(matched, dr.F)
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			x.Pred.String(),
			fmt.Sprintf("%.3f", x.Score),
			fmt.Sprintf("%.0f%%", 100*x.ErrImprovement),
			fmt.Sprintf("%d", x.NumTuples),
			fmt.Sprintf("%.2f/%.2f/%.2f", p, r, f1),
			x.Origin,
		})
	}
	table(e.w, []string{"rank", "predicate", "score", "Δε", "tuples", "truth P/R/F1", "origin"}, rows)
	fmt.Fprintf(e.w, "ε=%.1f  lineage=%d  candidates=%d  latency=%v\n", dr.Eps, len(dr.F), dr.Candidates, elapsed.Round(time.Millisecond))
	fmt.Fprintf(e.w, "stage timings: %s\n", timings(dr))
	return nil
}

func runF7(e *env) error {
	f, err := fecSetup(int(float64(e.rows)*1.5), e.seed)
	if err != nil {
		return err
	}
	res := f.res
	inS := map[int]bool{}
	for _, s := range f.suspect {
		inS[s] = true
	}
	p := viz.Plot{Title: "McCain total received donations per day since 11/14/2006 (negative spike marked #)",
		XLabel: "campaign day", YLabel: "sum(amount) $", Width: 100, Height: 22, Lines: false}
	var worstDay int
	var worstVal float64
	for r := 0; r < res.Table.NumRows(); r++ {
		day := res.Table.Value(r, 0).Float()
		tot := res.Table.Value(r, 1)
		if tot.IsNull() {
			continue
		}
		cls := 0
		if inS[r] {
			cls = 1
		}
		if tot.Float() < worstVal {
			worstVal = tot.Float()
			worstDay = int(day)
		}
		p.Points = append(p.Points, viz.Point{X: day, Y: tot.Float(), Class: cls})
	}
	fmt.Fprintln(e.w, p.ASCII())
	fmt.Fprintf(e.w, "days: %d   negative days: %d   worst: day %d ($%.0f)\n",
		res.Table.NumRows(), len(f.suspect), worstDay, worstVal)
	fmt.Fprintf(e.w, "paper shape: strange negative spike around day 500 → %v (worst day within 490..510: %v)\n",
		worstVal < 0, worstDay >= 490 && worstDay <= 510)
	writeSVG(e, "fig7_fec_daily.svg", &p)
	return nil
}

func runW1(e *env) error {
	f, err := fecSetup(int(float64(e.rows)*1.5), e.seed)
	if err != nil {
		return err
	}
	dr, err := f.debug(core.Options{})
	if err != nil {
		return err
	}
	if len(dr.Explanations) == 0 {
		return fmt.Errorf("no explanations")
	}
	fmt.Fprintln(e.w, "top predicates:")
	for i, x := range dr.Explanations[:minInt(5, len(dr.Explanations))] {
		fmt.Fprintf(e.w, "  [%d] %s\n", i, x.Scored)
	}
	top := dr.Explanations[0]
	mentionsMemo := false
	for _, x := range dr.Explanations[:minInt(3, len(dr.Explanations))] {
		if strings.Contains(x.Pred.String(), "memo") {
			mentionsMemo = true
		}
	}
	cleaned, err := core.CleanAndRequery(f.res, top.Pred)
	if err != nil {
		return err
	}
	before := negativeMass(f.res)
	after := negativeMass(cleaned)
	removed := 0.0
	if before > 0 {
		removed = 1 - after/before
	}
	fmt.Fprintf(e.w, "\ncleaned query: %s\n", core.CleanedSQL(f.res.Stmt, top.Pred))
	fmt.Fprintf(e.w, "negative mass: before=$%.0f after=$%.0f (removed %.0f%%)\n", before, after, 100*removed)
	fmt.Fprintf(e.w, "paper shape: top predicates reference memo REATTRIBUTION TO SPOUSE → %v;\n", mentionsMemo)
	fmt.Fprintf(e.w, "  clicking removes a significant fraction of the negative value → %v\n", removed > 0.7)
	return nil
}

func negativeMass(res *exec.Result) float64 {
	ci := res.Table.Schema().ColIndex("total")
	var mass float64
	for r := 0; r < res.Table.NumRows(); r++ {
		v := res.Table.Value(r, ci)
		if !v.IsNull() && v.Float() < 0 {
			mass += -v.Float()
		}
	}
	return mass
}

// ---------------------------------------------------------------------
// E1 — quality vs baselines

func runE1(e *env) error {
	type flow struct {
		name    string
		res     *exec.Result
		suspect []int
		dprime  []int
		truth   *datasets.Truth
		metric  errmetric.Metric
		aggCol  string // excluded from predicate vocabularies, like the pipeline does
	}
	fi, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	ff, err := fecSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	flows := []flow{
		{"intel", fi.res, fi.suspect, fi.dprime, fi.truth, errmetric.TooHigh{C: 70}, "temperature"},
		{"fec", ff.res, ff.suspect, ff.dprime, ff.truth, errmetric.TooLow{C: 0}, "amount"},
	}
	var rows [][]string
	for _, fl := range flows {
		F := fl.res.Lineage(fl.suspect)
		truthInF := 0
		for _, r := range F {
			if fl.truth.Label(r) {
				truthInF++
			}
		}

		// Ranked provenance (ours): top-1 predicate's tuple set.
		start := time.Now()
		dr, err := core.Debug(core.DebugRequest{
			Result: fl.res, AggItem: -1, Suspect: fl.suspect,
			Examples: fl.dprime, Metric: fl.metric,
		})
		if err != nil {
			return err
		}
		ourTime := time.Since(start)
		var ourSet []int
		ourDesc := "(none)"
		if len(dr.Explanations) > 0 {
			ourSet = dr.Explanations[0].Pred.MatchingRows(fl.res.Source, F)
			ourDesc = dr.Explanations[0].Pred.String()
		}
		addRow := func(method string, set []int, desc string, dur time.Duration) {
			p, r, f1 := fl.truth.Score(set, F)
			rows = append(rows, []string{fl.name, method,
				fmt.Sprintf("%d", len(set)),
				fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", r), fmt.Sprintf("%.3f", f1),
				dur.Round(time.Millisecond).String(), desc})
		}
		addRow("ranked-provenance(top1)", ourSet, ourDesc, ourTime)

		// Full provenance baseline.
		start = time.Now()
		full := baseline.FullProvenance(fl.res, fl.suspect)
		addRow("full-provenance", full, "(all lineage tuples)", time.Since(start))

		// Top-k influence baseline (k = |ground truth in F| for the
		// fairest possible comparison).
		start = time.Now()
		topk, err := baseline.TopKInfluence(fl.res, fl.suspect, 0, fl.metric, truthInF)
		if err != nil {
			return err
		}
		addRow(fmt.Sprintf("topk-influence(k=%d)", truthInF), topk, "(tuple ids, no description)", time.Since(start))

		// Exhaustive predicate search baseline.
		start = time.Now()
		exh, err := baseline.Exhaustive(fl.res, fl.suspect, 0, fl.metric, baseline.ExhaustiveOptions{
			Feature: feature.Options{Exclude: []string{fl.aggCol}},
		})
		if err != nil {
			return err
		}
		if len(exh) > 0 {
			set := exh[0].Pred.MatchingRows(fl.res.Source, F)
			addRow(fmt.Sprintf("exhaustive-2clause(%d evaluated)", exh[0].Evaluated), set, exh[0].Pred.String(), time.Since(start))
		}
	}
	table(e.w, []string{"dataset", "method", "|out|", "precision", "recall", "F1", "time", "description"}, rows)
	fmt.Fprintln(e.w, "paper shape: ranked provenance precision ≫ full-provenance precision; only predicate methods produce descriptions")
	return nil
}

// ---------------------------------------------------------------------
// E2 — latency scaling

func runE2(e *env) error {
	sizes := []int{25_000, 50_000, 100_000, 200_000, 400_000}
	var rows [][]string
	for _, n := range sizes {
		f, err := intelSetup(n, e.seed)
		if err != nil {
			return err
		}
		qStart := time.Now()
		res, err := exec.RunSQL(f.db, datasets.IntelWindowSQL)
		if err != nil {
			return err
		}
		qTime := time.Since(qStart)
		_ = res
		dStart := time.Now()
		dr, err := f.debug(core.Options{})
		if err != nil {
			return err
		}
		dTime := time.Since(dStart)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(dr.F)),
			qTime.Round(time.Millisecond).String(),
			dTime.Round(time.Millisecond).String(),
			timings(dr),
		})
	}
	table(e.w, []string{"|D| rows", "|F| lineage", "query", "debug", "stage breakdown"}, rows)
	fmt.Fprintln(e.w, "paper shape: debug latency grows ~linearly in |F| (LOO influence is O(|F|) via removable aggregates)")
	return nil
}

// ---------------------------------------------------------------------
// E3 — splitting criteria ablation

func runE3(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, crit := range []dtree.Criterion{dtree.Gini, dtree.Entropy, dtree.GainRatio} {
		start := time.Now()
		dr, err := f.debug(core.Options{Criteria: []dtree.Criterion{crit}})
		if err != nil {
			return err
		}
		dur := time.Since(start)
		desc, f1s, length := "(none)", "0/0/0", 0
		if len(dr.Explanations) > 0 {
			top := dr.Explanations[0]
			matched := top.Pred.MatchingRows(f.res.Source, dr.F)
			p, r, f1 := f.truth.Score(matched, dr.F)
			f1s = fmt.Sprintf("%.2f/%.2f/%.2f", p, r, f1)
			desc = top.Pred.String()
			length = top.Complexity
		}
		rows = append(rows, []string{crit.String(), f1s, fmt.Sprintf("%d", length),
			dur.Round(time.Millisecond).String(), desc})
	}
	table(e.w, []string{"criterion", "top1 P/R/F1", "clauses", "debug time", "top predicate"}, rows)
	return nil
}

// ---------------------------------------------------------------------
// E4 — beam width + cleaner ablation

func runE4(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.w, "beam width sweep (subgroup discovery):")
	var rows [][]string
	for _, beam := range []int{1, 2, 4, 8, 16} {
		start := time.Now()
		dr, err := f.debug(core.Options{Subgroup: subgroup.Options{BeamWidth: beam}})
		if err != nil {
			return err
		}
		dur := time.Since(start)
		f1s := "0/0/0"
		if len(dr.Explanations) > 0 {
			matched := dr.Explanations[0].Pred.MatchingRows(f.res.Source, dr.F)
			p, r, f1 := f.truth.Score(matched, dr.F)
			f1s = fmt.Sprintf("%.2f/%.2f/%.2f", p, r, f1)
		}
		rows = append(rows, []string{fmt.Sprintf("%d", beam), f1s,
			fmt.Sprintf("%d", dr.Candidates), dur.Round(time.Millisecond).String()})
	}
	table(e.w, []string{"beam", "top1 P/R/F1", "candidates", "debug time"}, rows)

	// Cleaner ablation: pollute D' with random clean tuples, then
	// compare kmeans cleaning vs none.
	fmt.Fprintln(e.w, "\nD'-cleaning ablation (D' polluted with 30% random inliers):")
	F := f.res.Lineage(f.suspect)
	polluted := append([]int(nil), f.dprime...)
	added := 0
	for _, r := range F {
		if added >= len(f.dprime)*3/10 {
			break
		}
		if !f.truth.Label(r) {
			polluted = append(polluted, r)
			added++
		}
	}
	rows = nil
	for _, method := range []string{"none", "kmeans", "bayes"} {
		dr, err := core.Debug(core.DebugRequest{
			Result: f.res, AggItem: -1, Suspect: f.suspect,
			Examples: polluted, Metric: errmetric.TooHigh{C: 70},
			Opt: core.Options{CleanMethod: method},
		})
		if err != nil {
			return err
		}
		f1s := "0/0/0"
		if len(dr.Explanations) > 0 {
			matched := dr.Explanations[0].Pred.MatchingRows(f.res.Source, dr.F)
			p, r, f1 := f.truth.Score(matched, dr.F)
			f1s = fmt.Sprintf("%.2f/%.2f/%.2f", p, r, f1)
		}
		kept := fmt.Sprintf("%d → %d", len(polluted), len(dr.DPrime))
		rows = append(rows, []string{method, kept, f1s})
	}
	table(e.w, []string{"cleaner", "D' size (in→kept)", "top1 P/R/F1"}, rows)
	return nil
}

// ---------------------------------------------------------------------
// E5 — influence ranking quality

func runE5(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	an, err := influence.Rank(f.res, f.suspect, 0, errmetric.TooHigh{C: 70}, influence.Options{})
	if err != nil {
		return err
	}
	var rows [][]string
	for _, k := range []int{50, 100, 500, 1000} {
		top := an.TopRows(k)
		p, r, f1 := f.truth.Score(top, an.F)
		rows = append(rows, []string{fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", len(top)),
			fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", r), fmt.Sprintf("%.3f", f1)})
	}
	table(e.w, []string{"k", "returned", "precision", "recall", "F1"}, rows)

	// Influence mass separation: mean Δε of anomalous vs clean tuples.
	var anomSum, cleanSum float64
	var anomN, cleanN int
	for _, ti := range an.Influences {
		if f.truth.Label(ti.Row) {
			anomSum += ti.Delta
			anomN++
		} else {
			cleanSum += ti.Delta
			cleanN++
		}
	}
	fmt.Fprintf(e.w, "mean Δε: anomalous tuples=%.4f (n=%d), clean tuples=%.4f (n=%d)\n",
		anomSum/float64(maxInt(1, anomN)), anomN, cleanSum/float64(maxInt(1, cleanN)), cleanN)
	fmt.Fprintln(e.w, "paper shape: anomalous tuples dominate the top of the influence ranking")
	return nil
}

// ---------------------------------------------------------------------
// E6 — ranker ablation

func runE6(e *env) error {
	f, err := intelSetup(e.rows, e.seed)
	if err != nil {
		return err
	}
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"no-prune", core.Options{DisablePrune: true}},
		{"no-merge", core.Options{DisableMerge: true}},
		{"no-prune,no-merge", core.Options{DisablePrune: true, DisableMerge: true}},
		{"no-excess", core.Options{Weights: ranker.Weights{Err: 0.45, Acc: 0.45, Complexity: 0.04, Excess: 1e-9}}},
	}
	var rows [][]string
	for _, cfg := range configs {
		start := time.Now()
		dr, err := f.debug(cfg.opt)
		if err != nil {
			return err
		}
		dur := time.Since(start)
		f1s, desc := "0/0/0", "(none)"
		avgClauses := 0.0
		if len(dr.Explanations) > 0 {
			top := dr.Explanations[0]
			matched := top.Pred.MatchingRows(f.res.Source, dr.F)
			p, r, f1 := f.truth.Score(matched, dr.F)
			f1s = fmt.Sprintf("%.2f/%.2f/%.2f", p, r, f1)
			desc = top.Pred.String()
			for _, x := range dr.Explanations {
				avgClauses += float64(x.Complexity)
			}
			avgClauses /= float64(len(dr.Explanations))
		}
		rows = append(rows, []string{cfg.name, f1s,
			fmt.Sprintf("%.1f", avgClauses),
			dur.Round(time.Millisecond).String(), desc})
	}
	table(e.w, []string{"config", "top1 P/R/F1", "avg clauses", "time", "top predicate"}, rows)
	fmt.Fprintln(e.w, "expected: pruning shortens predicates; the excess term demotes delete-everything predicates")
	return nil
}

// ---------------------------------------------------------------------

func timings(dr *core.DebugResult) string {
	keys := make([]string, 0, len(dr.Timings))
	for k := range dr.Timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, dr.Timings[k].Round(time.Millisecond)))
	}
	return strings.Join(parts, " ")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
