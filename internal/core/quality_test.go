package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// The quality table is the judge of what Debug answers: every scenario
// is a debugging question over an in-repo generator with per-row ground
// truth, every row a method, every cell what the method's ranked answers
// score against that truth within the lineage F. `make quality` prints it.
//
// Scenarios: the paper's two walkthroughs at the sizes and seeds whose
// suspect windows have ε > 0 (Intel at 20,000 and 30,000 rows does not:
// the windows' avg_temp stays under TooHigh{C: 70}), each with the user's
// examples and without; the Intel examples polluted with clean lineage
// rows; and testgen.Planted tables that vary what makes explanation hard.
//
// Rows: the one configuration ("default"); the ablations and known-bad
// settings Options still carries, each of which must move a cell
// somewhere or be deleted with its code; and the three baselines. The
// default and the baselines are held to floors that ratchet: a change may
// raise one, and lowering one needs a sentence in CHANGES.md. The
// variants are pinned exactly where they differ from the default and
// must equal it elsewhere, so a change that fixes or breaks a known-bad
// row is seen.
//
// Findings the table records rather than fixes:
//   - Exhaustive search maximizes ε-improvement and breaks ties toward
//     fewer tuples. Under a thresholded metric every predicate that pulls
//     the groups under the threshold improves ε by 100%, so on Intel its
//     answer is the smallest of the delete-almost-everything predicates
//     (`moteid <= 50`, F1 0.113): a property of the objective, not a
//     defect. Where removing the culprits is the only way under the
//     threshold (FEC, most planted tables) it finds them.
//   - Top-k influence with k = |truth in F| is near-perfect whenever every
//     culprit has positive leave-one-out influence; it returns tuple ids,
//     not a description.
//   - A numeric clause is only as sharp as feature's 12 quantile cuts: a
//     cause at the 99th percentile is answered with the 92nd (F1 0.233),
//     one at the 99.9th hardly at all (F1 0.085).
//   - Two disjoint causes are not a conjunction: no answer names both.
//   - A tree says `a > t` where a subgroup rule says `a >= t'`. Where no
//     value of F lies between them the two select the same rows of F,
//     and the ranker keeps one answer per row set (the higher score, then
//     fewer clauses): distinct is below 3 only where Debug gives fewer
//     than three answers (FEC's 2 is a ranking of two).

// qualityCell is what one method scored on one scenario: the F1 of its
// first answer against the truth within F, the best F1 among its first
// three, the rank of its first answer with F1 >= 0.9 (0: none), the
// first answer's clause count (compactness is what pruning is for), and
// how many of its first three answers select different rows of F (two
// spellings of one row set spend a top-k slot on nothing).
type qualityCell struct {
	top1, top3 float64
	firstGood  int
	clauses    int
	distinct   int
}

func (c qualityCell) String() string {
	return fmt.Sprintf("%.3f / %.3f / %d / %dc / %dd", c.top1, c.top3, c.firstGood, c.clauses, c.distinct)
}

func milli(f float64) int { return int(math.Round(f * 1000)) }

// same compares cells at the table's three decimals.
func (c qualityCell) same(o qualityCell) bool {
	return milli(c.top1) == milli(o.top1) && milli(c.top3) == milli(o.top3) && c.firstGood == o.firstGood && c.clauses == o.clauses && c.distinct == o.distinct
}

// meets reports whether c is no worse than floor: no F1 lower, no later
// first good answer, no longer a first answer unless a better one, and
// no fewer distinct answers.
func (c qualityCell) meets(floor qualityCell) bool {
	return milli(c.top1) >= milli(floor.top1) && milli(c.top3) >= milli(floor.top3) &&
		(floor.firstGood == 0 || (c.firstGood > 0 && c.firstGood <= floor.firstGood)) &&
		(milli(c.top1) > milli(floor.top1) || c.clauses <= floor.clauses) &&
		c.distinct >= floor.distinct
}

// qualityVariants are the non-default rows: what Options can still say.
var qualityVariants = []struct {
	name string
	opt  Options
}{
	{"no-prune", Options{DisablePrune: true}},
	{"no-excess", Options{DisableExcess: true}},
	{"uncapped", Options{MaxLearnRows: -1}},
	{"quantile=0.9", Options{InfluenceQuantile: 0.9}},
}

// qualityRow is one scenario's checked-in line of the table.
type qualityRow struct {
	scenario string
	// def and exhaustive are floors for the default configuration and
	// baseline.Exhaustive (2 clauses, aggregated column excluded); full and
	// topk are F1 floors for baseline.FullProvenance and
	// baseline.TopKInfluence with k = |truth in F|.
	def, exhaustive qualityCell
	full, topk      float64
	// moved pins each variant's cell where it differs from the default's.
	moved map[string]qualityCell
}

// qualityScenario is one debugging question with per-row ground truth.
type qualityScenario struct {
	name     string
	res      *exec.Result
	suspect  []int
	examples []int // nil: the high-influence set stands in for D'
	metric   errmetric.Metric
	truth    *datasets.Truth
	aggCol   string
	// base is what does not depend on the examples, computed once for the
	// scenarios that share a result.
	base *qualityBaselines
}

type qualityBaselines struct {
	once       sync.Once
	err        error
	lenF       int
	truthInF   int
	full, topk float64
	exhaustive qualityCell
}

// newQualityScenario runs sql and selects the suspects and examples.
func newQualityScenario(t *testing.T, name string, src *engine.Table, labels []bool, sql, suspectCol string, suspect func(float64) bool, examples string, metric errmetric.Metric, aggCol string) qualityScenario {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	res, err := exec.Run(t.Context(), src, stmt)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	s, err := SuspectWhere(res, suspectCol, func(v engine.Value) bool { return !v.IsNull() && suspect(v.Float()) })
	if err != nil || len(s) == 0 {
		t.Fatalf("%s: suspect: %v (%d groups)", name, err, len(s))
	}
	ex, err := ExamplesWhereCtx(t.Context(), res, s, examples)
	if err != nil || len(ex) == 0 {
		t.Fatalf("%s: examples: %v (%d rows)", name, err, len(ex))
	}
	return qualityScenario{name: name, res: res, suspect: s, examples: ex, metric: metric,
		truth: datasets.NewTruth(labels), aggCol: aggCol, base: &qualityBaselines{}}
}

// with returns the scenario asked with other examples.
func (sc qualityScenario) with(suffix string, examples []int) qualityScenario {
	sc.name, sc.examples = sc.name+"/"+suffix, examples
	return sc
}

// score scores a ranked predicate list against the truth within F.
func (sc qualityScenario) score(F []int, preds []predicate.Predicate) qualityCell {
	var c qualityCell
	var top [][]int
	for i, p := range preds {
		rows := p.MatchingRows(sc.res.Source, F)
		_, _, f1 := sc.truth.Score(rows, F)
		if i == 0 {
			c.top1, c.clauses = f1, p.Len()
		}
		if i < 3 {
			c.top3 = max(c.top3, f1)
			if !slices.ContainsFunc(top, func(prev []int) bool { return slices.Equal(prev, rows) }) {
				top = append(top, rows)
			}
		}
		if f1 >= 0.9 && c.firstGood == 0 {
			c.firstGood = i + 1
		}
	}
	c.distinct = len(top)
	return c
}

// debug returns what Debug's ranking scores under opt, and ε.
func (sc qualityScenario) debug(opt Options) (qualityCell, float64, error) {
	dr, err := Debug(DebugRequest{Result: sc.res, AggItem: -1, Suspect: sc.suspect, Examples: sc.examples, Metric: sc.metric, Opt: opt})
	if err != nil {
		return qualityCell{}, 0, err
	}
	preds := make([]predicate.Predicate, len(dr.Explanations))
	for i, e := range dr.Explanations {
		preds[i] = e.Pred
	}
	return sc.score(dr.F, preds), dr.Eps, nil
}

// baselines computes what does not depend on the examples.
func (sc qualityScenario) baselines() *qualityBaselines {
	b := sc.base
	b.once.Do(func() {
		F := baseline.FullProvenance(sc.res, sc.suspect)
		b.lenF = len(F)
		for _, r := range F {
			if sc.truth.Label(r) {
				b.truthInF++
			}
		}
		_, _, b.full = sc.truth.Score(F, F)
		topk, err := baseline.TopKInfluence(sc.res, sc.suspect, 0, sc.metric, b.truthInF)
		if err != nil {
			b.err = err
			return
		}
		_, _, b.topk = sc.truth.Score(topk, F)
		exh, err := baseline.Exhaustive(sc.res, sc.suspect, 0, sc.metric, baseline.ExhaustiveOptions{
			Feature: feature.Options{Exclude: []string{sc.aggCol}},
		})
		if err != nil {
			b.err = err
			return
		}
		preds := make([]predicate.Predicate, len(exh))
		for i := range exh {
			preds[i] = exh[i].Pred
		}
		b.exhaustive = sc.score(F, preds)
	})
	return b
}

func qualityScenarios(t *testing.T) []qualityScenario {
	var out []qualityScenario
	walkthrough := func(sc qualityScenario) {
		out = append(out, sc.with("examples", sc.examples), sc.with("no-examples", nil))
	}
	intel := func(rows int, seed int64) qualityScenario {
		tbl, labels := datasets.Intel(datasets.IntelConfig{Rows: rows, Seed: seed})
		return newQualityScenario(t, fmt.Sprintf("intel-%dk-seed%d", rows/1000, seed), tbl, labels, datasets.IntelWindowSQL,
			"std_temp", func(f float64) bool { return f > 10 }, "temperature > 100", errmetric.TooHigh{C: 70}, "temperature")
	}
	walkthrough(intel(100_000, 1))
	seed7 := intel(100_000, 7)
	walkthrough(seed7)
	walkthrough(intel(50_000, 3))
	tbl, labels := datasets.FEC(datasets.FECConfig{Seed: 7})
	walkthrough(newQualityScenario(t, "fec-seed7", tbl, labels, datasets.FECDailySQL("McCain"),
		"total", func(f float64) bool { return f < 0 }, "amount < 0", errmetric.TooLow{C: 0}, "amount"))

	// D' pollution: the Intel seed-7 examples plus evenly spaced clean
	// lineage rows, the given share of |D'| — the user's mis-clicks.
	F := seed7.res.Lineage(seed7.suspect)
	for _, pct := range []int{10, 30, 50, 100} {
		polluted := append([]int(nil), seed7.examples...)
		want := len(seed7.examples) * pct / 100
		for i, step := 0, len(F)/(want+1); len(polluted) < len(seed7.examples)+want && i < len(F); i += step {
			if !seed7.truth.Label(F[i]) {
				polluted = append(polluted, F[i])
			}
		}
		out = append(out, seed7.with(fmt.Sprintf("polluted=%d%%", pct), polluted))
	}

	cause := func(clauses ...predicate.Clause) []predicate.Predicate {
		return []predicate.Predicate{{Clauses: clauses}}
	}
	ge := func(col string, v float64) predicate.Clause {
		return predicate.Clause{Col: col, Op: predicate.OpGe, Val: engine.NewFloat(v)}
	}
	lt := func(col string, v float64) predicate.Clause {
		return predicate.Clause{Col: col, Op: predicate.OpLt, Val: engine.NewFloat(v)}
	}
	eq := func(col, v string) predicate.Clause {
		return predicate.Clause{Col: col, Op: predicate.OpEq, Val: engine.NewString(v)}
	}
	for _, p := range []struct {
		name       string
		cfg        testgen.PlantedConfig
		noExamples bool
	}{
		// Selectivity: the cause holds for 10%, 1%, 0.1% of the lineage.
		{name: "numeric-10%", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 90))}},
		{name: "numeric-1%", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 99))}},
		{name: "numeric-0.1%", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 99.9)), Shift: 2000}},
		// Clause kind and conjunction width.
		{name: "categorical", cfg: testgen.PlantedConfig{Causes: cause(eq("c", "c3"))}},
		{name: "2-clause", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 70), eq("c", "c3"))}},
		{name: "3-clause", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 50), lt("b", 50), eq("d", "d1"))}},
		{name: "2-clause-no-examples", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 95), eq("c", "c3"))}, noExamples: true},
		// Two causes whose row sets overlap (a >= 92 and b >= 92 both hold
		// for 0.6% of the rows).
		{name: "two-causes", cfg: testgen.PlantedConfig{Causes: append(cause(ge("a", 92)), cause(ge("b", 92))...)}},
		// z >= 50 agrees with the cause on 85% of its rows, in every group.
		{name: "distractor", cfg: testgen.PlantedConfig{Causes: cause(ge("a", 95)), Distractor: 0.85}},
		// The cause is over a column that is 60% NULL.
		{name: "null-heavy", cfg: testgen.PlantedConfig{Causes: cause(ge("n", 80))}},
	} {
		tbl, labels := testgen.Planted(p.cfg)
		sc := newQualityScenario(t, "planted", tbl, labels, testgen.PlantedSQL,
			"g", func(g float64) bool { return g >= 10 }, "v > 50", errmetric.TooHigh{C: 10.5}, "v")
		if p.noExamples {
			sc.examples = nil
		}
		out = append(out, sc.with(p.name, sc.examples))
	}
	return out
}

// TestQualityTable measures the table and holds it to qualityTable. Under
// -short a variant runs only on the scenarios that pin a cell for it.
func TestQualityTable(t *testing.T) {
	scs := qualityScenarios(t)
	want := map[string]qualityRow{}
	for _, row := range qualityTable {
		want[row.scenario] = row
	}

	type measured struct {
		def      qualityCell
		eps      float64
		variants []*qualityCell // nil: not run
	}
	got := make([]measured, len(scs))
	errs := make([]error, len(scs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc, m := scs[i], measured{variants: make([]*qualityCell, len(qualityVariants))}
				if errs[i] = sc.baselines().err; errs[i] != nil {
					continue
				}
				if m.def, m.eps, errs[i] = sc.debug(Options{}); errs[i] != nil {
					continue
				}
				for vi, v := range qualityVariants {
					if _, pinned := want[sc.name].moved[v.name]; testing.Short() && !pinned {
						continue
					}
					c, _, err := sc.debug(v.opt)
					if err != nil {
						errs[i] = fmt.Errorf("%s: %w", v.name, err)
						break
					}
					m.variants[vi] = &c
				}
				got[i] = m
			}
		}()
	}
	for i := range scs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	movedAnywhere := map[string]bool{}
	for i, sc := range scs {
		if errs[i] != nil {
			t.Errorf("%s: %v", sc.name, errs[i])
			continue
		}
		b, m := sc.baselines(), got[i]
		if m.eps <= 0 || b.truthInF == 0 {
			t.Errorf("%s: degenerate scenario: ε = %g, %d anomalous rows in F", sc.name, m.eps, b.truthInF)
		}
		row, ok := want[sc.name]
		if !ok {
			t.Errorf("%s: no row in qualityTable", sc.name)
			continue
		}
		if !m.def.meets(row.def) {
			t.Errorf("%s: default scores %s, under its floor %s", sc.name, m.def, row.def)
		}
		if !b.exhaustive.meets(row.exhaustive) || milli(b.full) < milli(row.full) || milli(b.topk) < milli(row.topk) {
			t.Errorf("%s: baselines score full-provenance %.3f, top-k %.3f, exhaustive %s; floors %.3f, %.3f, %s",
				sc.name, b.full, b.topk, b.exhaustive, row.full, row.topk, row.exhaustive)
		}
		for vi, v := range qualityVariants {
			c := m.variants[vi]
			if c == nil {
				continue
			}
			pin, pinned := row.moved[v.name]
			if !pinned {
				pin = m.def
			}
			if !c.same(pin) {
				t.Errorf("%s: %s scores %s, the table pins %s (default: %s)", sc.name, v.name, c, pin, m.def)
			}
			if !c.same(m.def) {
				movedAnywhere[v.name] = true
			}
		}
	}
	for _, v := range qualityVariants {
		if !movedAnywhere[v.name] && !t.Failed() {
			t.Errorf("%s moves no cell of any scenario: delete the option and the code it switches", v.name)
		}
	}
	if len(scs) != len(qualityTable) {
		t.Errorf("%d scenarios measured, qualityTable has %d rows", len(scs), len(qualityTable))
	}

	if testing.Verbose() {
		var b strings.Builder
		b.WriteString("\ncell: top-1 F1 / best-of-top-3 F1 / rank of first answer with F1 >= 0.9 (0: none) / top-1 clauses / distinct row sets in the top 3; · = as the default (under -short: or not run)\n\n")
		b.WriteString("| scenario | ε | \\|F\\| | truth in F | default |")
		for _, v := range qualityVariants {
			fmt.Fprintf(&b, " %s |", v.name)
		}
		b.WriteString(" full provenance | top-k influence | exhaustive |\n|---|---|---|---|---|")
		b.WriteString(strings.Repeat("---|", len(qualityVariants)+3) + "\n")
		for i, sc := range scs {
			bl, m := sc.baselines(), got[i]
			fmt.Fprintf(&b, "| %s | %.4g | %d | %d | %s |", sc.name, m.eps, bl.lenF, bl.truthInF, m.def)
			for vi := range qualityVariants {
				switch c := m.variants[vi]; {
				case c == nil, c.same(m.def):
					b.WriteString(" · |")
				default:
					fmt.Fprintf(&b, " %s |", c)
				}
			}
			fmt.Fprintf(&b, " %.3f | %.3f | %s |\n", bl.full, bl.topk, bl.exhaustive)
		}
		b.WriteString("\nas qualityTable rows:\n\n")
		lit := func(c qualityCell) string {
			return fmt.Sprintf("{%.3f, %.3f, %d, %d, %d}", c.top1, c.top3, c.firstGood, c.clauses, c.distinct)
		}
		for i, sc := range scs {
			bl, m := sc.baselines(), got[i]
			fmt.Fprintf(&b, "\t{scenario: %q, def: qualityCell%s, full: %.3f, topk: %.3f, exhaustive: qualityCell%s", sc.name, lit(m.def), bl.full, bl.topk, lit(bl.exhaustive))
			var moved []string
			for vi, v := range qualityVariants {
				if c := m.variants[vi]; c != nil && !c.same(m.def) {
					moved = append(moved, fmt.Sprintf("%q: %s", v.name, lit(*c)))
				}
			}
			if len(moved) > 0 {
				fmt.Fprintf(&b, ",\n\t\tmoved: map[string]qualityCell{%s}", strings.Join(moved, ", "))
			}
			b.WriteString("},\n")
		}
		fmt.Println(b.String())
	}
}

// qualityTable is the checked-in table (`make quality` prints the measured
// rows in this form under the markdown).
var qualityTable = []qualityRow{
	{scenario: "intel-100k-seed1/examples", def: qualityCell{0.978, 0.978, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.105, 0.105, 0, 1, 1},
		moved: map[string]qualityCell{"no-prune": {0.978, 0.978, 1, 3, 3}, "uncapped": {0.986, 0.986, 1, 3, 3}}},
	{scenario: "intel-100k-seed1/no-examples", def: qualityCell{0.978, 0.978, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.105, 0.105, 0, 1, 1},
		moved: map[string]qualityCell{"no-prune": {0.978, 0.978, 1, 3, 3}, "uncapped": {0.986, 0.986, 1, 3, 3}, "quantile=0.9": {0.214, 0.670, 0, 2, 3}}},
	{scenario: "intel-100k-seed7/examples", def: qualityCell{0.963, 0.963, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.963, 0.963, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}}},
	{scenario: "intel-100k-seed7/no-examples", def: qualityCell{0.963, 0.963, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.963, 0.963, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}, "quantile=0.9": {0.227, 0.647, 0, 3, 3}}},
	{scenario: "intel-50k-seed3/examples", def: qualityCell{0.992, 0.992, 1, 1, 3}, full: 0.105, topk: 0.590, exhaustive: qualityCell{0.371, 0.371, 0, 2, 2},
		moved: map[string]qualityCell{"uncapped": {0.811, 0.811, 0, 2, 3}}},
	{scenario: "intel-50k-seed3/no-examples", def: qualityCell{0.658, 0.718, 0, 3, 3}, full: 0.105, topk: 0.590, exhaustive: qualityCell{0.371, 0.371, 0, 2, 2},
		moved: map[string]qualityCell{"no-excess": {0.658, 0.711, 0, 3, 3}, "uncapped": {0.465, 0.576, 0, 3, 3}, "quantile=0.9": {0.340, 0.587, 0, 3, 3}}},
	{scenario: "fec-seed7/examples", def: qualityCell{1.000, 1.000, 1, 1, 2}, full: 0.550, topk: 1.000, exhaustive: qualityCell{1.000, 1.000, 1, 1, 1}},
	{scenario: "fec-seed7/no-examples", def: qualityCell{1.000, 1.000, 1, 1, 2}, full: 0.550, topk: 1.000, exhaustive: qualityCell{1.000, 1.000, 1, 1, 1}},
	{scenario: "intel-100k-seed7/polluted=10%", def: qualityCell{0.960, 0.960, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.960, 0.960, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}}},
	{scenario: "intel-100k-seed7/polluted=30%", def: qualityCell{0.964, 0.964, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.962, 0.962, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}}},
	{scenario: "intel-100k-seed7/polluted=50%", def: qualityCell{0.963, 0.963, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.963, 0.963, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}}},
	{scenario: "intel-100k-seed7/polluted=100%", def: qualityCell{0.965, 0.965, 1, 2, 3}, full: 0.105, topk: 1.000, exhaustive: qualityCell{0.113, 0.113, 0, 1, 2},
		moved: map[string]qualityCell{"no-prune": {0.965, 0.965, 1, 3, 3}, "uncapped": {0.983, 0.983, 1, 2, 3}}},
	{scenario: "planted/numeric-10%", def: qualityCell{0.826, 0.826, 0, 2, 3}, full: 0.186, topk: 1.000, exhaustive: qualityCell{0.801, 0.801, 0, 1, 1},
		moved: map[string]qualityCell{"uncapped": {0.783, 0.877, 0, 2, 3}}},
	{scenario: "planted/numeric-1%", def: qualityCell{0.233, 0.233, 0, 2, 3}, full: 0.021, topk: 0.954, exhaustive: qualityCell{0.231, 0.241, 0, 2, 3},
		moved: map[string]qualityCell{"uncapped": {0.235, 0.235, 0, 2, 3}}},
	{scenario: "planted/numeric-0.1%", def: qualityCell{0.085, 0.085, 0, 3, 3}, full: 0.002, topk: 1.000, exhaustive: qualityCell{0.087, 0.087, 0, 2, 3},
		moved: map[string]qualityCell{"uncapped": {0.083, 0.083, 0, 3, 3}}},
	{scenario: "planted/categorical", def: qualityCell{1.000, 1.000, 1, 2, 3}, full: 0.225, topk: 1.000, exhaustive: qualityCell{1.000, 1.000, 1, 1, 1},
		moved: map[string]qualityCell{"uncapped": {1.000, 1.000, 1, 2, 2}}},
	{scenario: "planted/2-clause", def: qualityCell{0.989, 0.989, 1, 3, 3}, full: 0.070, topk: 1.000, exhaustive: qualityCell{0.988, 0.988, 1, 2, 3},
		moved: map[string]qualityCell{"uncapped": {0.980, 0.980, 1, 3, 3}}},
	{scenario: "planted/3-clause", def: qualityCell{0.941, 0.941, 1, 3, 3}, full: 0.117, topk: 1.000, exhaustive: qualityCell{0.638, 0.638, 0, 2, 3},
		moved: map[string]qualityCell{"uncapped": {0.948, 0.948, 1, 3, 3}}},
	{scenario: "planted/2-clause-no-examples", def: qualityCell{0.711, 0.711, 0, 3, 3}, full: 0.010, topk: 0.528, exhaustive: qualityCell{0.721, 0.721, 0, 2, 3},
		moved: map[string]qualityCell{"uncapped": {0.707, 0.707, 0, 3, 3}, "quantile=0.9": {0.625, 0.625, 0, 3, 3}}},
	{scenario: "planted/two-causes", def: qualityCell{0.579, 0.627, 0, 2, 3}, full: 0.272, topk: 1.000, exhaustive: qualityCell{0.269, 0.269, 0, 1, 2},
		moved: map[string]qualityCell{"no-excess": {0.579, 0.579, 0, 2, 3}, "uncapped": {0.272, 0.674, 0, 1, 3}}},
	{scenario: "planted/distractor", def: qualityCell{0.931, 0.931, 1, 3, 3}, full: 0.094, topk: 1.000, exhaustive: qualityCell{0.844, 0.844, 0, 2, 3},
		moved: map[string]qualityCell{"no-excess": {0.866, 0.931, 2, 3, 3}, "uncapped": {0.927, 0.927, 1, 3, 3}}},
	{scenario: "planted/null-heavy", def: qualityCell{0.976, 0.977, 1, 2, 3}, full: 0.147, topk: 1.000, exhaustive: qualityCell{0.919, 0.919, 1, 1, 1},
		moved: map[string]qualityCell{"no-prune": {0.976, 0.976, 1, 2, 3}, "uncapped": {0.930, 0.930, 1, 2, 3}}},
}
