// Package core is DBWipes' primary contribution: the ranked provenance
// pipeline. Given an executed aggregate query, a set of suspicious
// output groups S, an error metric ε, and (optionally) user-highlighted
// example tuples D', Debug returns a ranked list of human-readable
// predicates describing the input tuples most responsible for the error
// — and CleanAndRequery applies a chosen predicate and re-runs the
// query, closing the paper's "clean as you query" interactive loop.
//
// The pipeline mirrors Figure 1 of the paper:
//
//	Preprocessor        → lineage F of S + leave-one-out influence (internal/influence)
//	Dataset Enumerator  → clean D' (internal/cleaner); one subgroup rule
//	                      extends D' into a region, with up to three
//	                      one-selector alternatives (internal/subgroup)
//	Predicate Enumerator→ one decision tree on D' (internal/dtree), its
//	                      leaf paths → predicates, plus the subgroup rules
//	Predicate Ranker    → ε-improvement + separation accuracy − complexity
//	                      − excess, one answer per row set of F
//	                      (internal/ranker)
//
// There is one configuration. What it answers on the paper's walkthroughs
// and on tables with a planted cause, next to the three baselines and to
// each ablation, is the quality table (quality_test.go; `make quality`
// prints it).
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/cleaner"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/feature"
	"repro/internal/influence"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/ranker"
	"repro/internal/sqlparse"
	"repro/internal/subgroup"
)

// Options holds what is left of the pipeline's configuration once every
// value no caller sets became a constant: two ablation switches and two
// known-bad settings, each a row of the quality table (quality_test.go,
// TestQualityTable) that shows what its component is for, and the one
// knob the differential generator needs. Production callers pass the
// zero value.
type Options struct {
	// DisablePrune turns off the ranker's greedy clause pruning.
	DisablePrune bool
	// DisableExcess drops the ranker's excess term, the penalty on
	// predicates that match lineage tuples nobody suspects.
	DisableExcess bool
	// InfluenceQuantile selects the high-influence set: tuples with at
	// least this fraction of the top influence. 0 takes
	// influenceQuantile; the table keeps 0.9 as a known-bad row.
	InfluenceQuantile float64
	// MaxLearnRows caps the population the learners see. 0 takes
	// maxLearnRows; negative keeps everything, the table's known-bad
	// "uncapped" row.
	MaxLearnRows int
	// DriftThreshold governs DebugAdvance's carry decision: carried
	// candidates are rescored against the advanced state, and when the
	// largest score movement exceeds the threshold DebugAdvance runs a
	// full Debug instead. A value ≤ 0 takes the default (0.1); +Inf
	// always carries once seeded, which is how the differential
	// generator drives the carried pass.
	DriftThreshold float64
}

// The pipeline's fixed parameters, each with the quality-table rows
// (quality_test.go) that justify it.
const (
	// influenceQuantile is the default Options.InfluenceQuantile. On the
	// table 0.5 answers no cell better and two worse (intel-100k seeds 1
	// and 7 without examples: top-1 F1 0.977 and 0.956 against 0.978 and
	// 0.963); 0.9, the known-bad row, leaves a D' too small to describe:
	// without examples its first answer on intel-100k scores 0.214 and
	// 0.227.
	influenceQuantile = 0.25
	// maxLearnRows is the default Options.MaxLearnRows: culpable tuples
	// are kept first (three quarters of the cap at most) and the rest is
	// an evenly spaced sample. Predicates are still scored against the
	// full lineage, so the reported ε-improvements are exact. The cap is
	// not only for speed: the table's "uncapped" row answers worse than
	// the default on intel-50k-seed3 (top-1 F1 0.811 and 0.465 against
	// 0.992 and 0.658), numeric-10% (0.783 against 0.826) and null-heavy
	// (0.930 against 0.976), where with every clean tuple in view the
	// learners drift off the fault; on intel-100k it answers better
	// (0.986 and 0.983 against 0.978 and 0.963).
	maxLearnRows = 16000
	// maxExplanations caps the returned ranking.
	maxExplanations = 10
	// defaultDriftThreshold is the score movement DebugAdvance tolerates
	// before running a full Debug instead. Scores live in roughly [0, 1]
	// (the Err and Acc terms weigh near 0.9 together), so 0.1 means "an
	// explanation moved by a tenth of the scale".
	defaultDriftThreshold = 0.1
)

func (o *Options) defaults() {
	if o.InfluenceQuantile <= 0 || o.InfluenceQuantile > 1 {
		o.InfluenceQuantile = influenceQuantile
	}
	if o.MaxLearnRows == 0 {
		o.MaxLearnRows = maxLearnRows
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = defaultDriftThreshold
	}
}

// DebugRequest is one provenance query: "why do these groups look
// wrong?".
type DebugRequest struct {
	// Ctx cancels the pipeline between stages and inside every
	// long-running one (the LOO loop, the ranker's scoring). A cancelled
	// Debug/DebugAdvance returns an error wrapping the context error and
	// publishes nothing: carried state from a previous pass stays exactly
	// as usable as before, so retrying the same request (or falling back
	// to a from-scratch run) yields bit-identical results. Nil means
	// context.Background. Stage times go to the obs.Record it carries;
	// Debug attaches one when it has none.
	Ctx context.Context
	// Result is the executed query (with provenance).
	Result *exec.Result
	// AggItem is the select-item index of the aggregate under scrutiny;
	// -1 means the first aggregate.
	AggItem int
	// Suspect lists the suspicious output rows S (indexes into
	// Result.Table).
	Suspect []int
	// Examples optionally lists suspicious input tuples D' (source row
	// ids). When empty, the high-influence set stands in for D'.
	Examples []int
	// Metric is the user's error function ε.
	Metric errmetric.Metric
	// Opt tunes the pipeline.
	Opt Options
}

// Explanation is one ranked predicate.
type Explanation struct {
	ranker.Scored
	// Candidate identifies which learner target the predicate was
	// learned for (diagnostic): "dprime" for the tree, "subgroup0" for
	// the subgroup rules.
	Candidate string
}

// DebugPlan records how a Debug pass was produced — the explanation
// pipeline's counterpart of exec.PlanInfo. A DebugAdvance pass is one of
// two modes: "carried" (the previous pass's predicates rescored against
// the advanced scoring state, learners skipped) or "full" (Debug from
// scratch), with Fallback saying why the carry did not apply.
type DebugPlan struct {
	// Mode is "full" or "carried".
	Mode string
	// Fallback is why a requested advance ran the full pipeline.
	Fallback string
	// Drift is the largest carried-candidate score movement observed
	// (set whenever carried candidates were rescored, even when the
	// drift sent the pass to a full Debug).
	Drift float64
}

// DebugResult is the output of one Debug call.
type DebugResult struct {
	// Explanations is the ranked predicate list (best first).
	Explanations []Explanation
	// Eps is ε over the suspect groups before cleaning.
	Eps float64
	// F is the suspect groups' lineage (fine-grained provenance).
	F []int
	// DPrime is the cleaned example set actually used.
	DPrime []int
	// Influence is the preprocessor's analysis (influences in F order;
	// TopQuantileRows reads the top).
	Influence *influence.Analysis
	// Candidates counts the learner targets: 1 (D'), or 2 when subgroup
	// discovery found a rule (D' and its region).
	Candidates int
	// Timings is each Debug stage's wall time, a view of the request's
	// obs.Record: a drift fallback counts its carried attempt too.
	Timings map[string]time.Duration
	// Plan records how this pass was produced (full / carried) and why.
	Plan DebugPlan

	// state is the carryable analysis for DebugAdvance chains.
	state *debugState
}

// debugState is what a later DebugAdvance needs to pick the analysis up
// after the source table grew: the result and request shape the pass
// ran under (to validate the advance applies), the influence analysis
// (its ranking stands while no suspect group grows), and the ranker's
// scored candidates (rescored instead of re-learned while drift stays
// low).
type debugState struct {
	src       *engine.Table // source table the pass ran over (family, base and length checks)
	stmtKey   string
	ord       int
	metricKey string
	opt       Options
	an        *influence.Analysis
	rstate    *ranker.RankerState
	// suspectKey and examplesKey fingerprint the question the carried
	// candidates were learned for: suspect groups by version-stable
	// identity (first source row), examples by row id. A changed
	// selection runs a full Debug — rescoring would be numerically
	// honest, but the learners never saw the new selection's lineage,
	// so selection-specific predicates could be silently missing.
	suspectKey  string
	examplesKey string
}

// metricKey canonicalizes a metric for change detection across Debug
// passes; every errmetric renders its parameters into String/against
// %v.
func metricKey(m errmetric.Metric) string {
	return fmt.Sprintf("%s|%v", m.Name(), m)
}

// suspectKeyOf fingerprints a suspect selection by the selected groups'
// first source rows — stable across table versions and output
// re-materialization, unlike the output row indexes themselves. All
// indexes must be in range (resolveDebug validates them).
func suspectKeyOf(res *exec.Result, suspect []int) string {
	frs := make([]int, len(suspect))
	for i, ri := range suspect {
		frs[i] = res.Groups[ri].FirstRow
	}
	return rowsKey(frs)
}

// rowsKey fingerprints a row-id selection (order-insensitive): the
// ascending ids as varints.
func rowsKey(rows []int) string {
	if !slices.IsSorted(rows) { // examples come ascending
		rows = slices.Sorted(slices.Values(rows))
	}
	b := make([]byte, 0, 4*len(rows))
	for _, r := range rows {
		b = binary.AppendVarint(b, int64(r))
	}
	return string(b)
}

// ctx returns the request's context, Background when unset.
func (req DebugRequest) ctx() context.Context {
	if req.Ctx != nil {
		return req.Ctx
	}
	return context.Background()
}

// resolveDebug validates the request shape shared by Debug and
// DebugAdvance and resolves the aggregate ordinal.
func resolveDebug(req DebugRequest) (int, error) {
	res := req.Result
	if res == nil {
		return 0, fmt.Errorf("core: nil result")
	}
	if req.Metric == nil {
		return 0, fmt.Errorf("core: nil error metric")
	}
	if len(req.Suspect) == 0 {
		return 0, fmt.Errorf("core: no suspect groups selected")
	}
	for _, ri := range req.Suspect {
		if ri < 0 || ri >= len(res.Groups) {
			return 0, fmt.Errorf("core: suspect row %d out of range", ri)
		}
	}
	if len(res.AggOrdinals()) == 0 {
		return 0, fmt.Errorf("core: query has no aggregates to debug")
	}
	return AggOrdinal(res, req.AggItem)
}

// AggOrdinal resolves a select-item index to its aggregate ordinal the
// way Debug reads DebugRequest.AggItem: a negative item is the first
// aggregate, any other must name an aggregate select item.
func AggOrdinal(res *exec.Result, item int) (int, error) {
	if item < 0 {
		return 0, nil
	}
	ord := res.AggOrdinalOf(item)
	if ord < 0 {
		return 0, fmt.Errorf("core: select item %d is not an aggregate", item)
	}
	return ord, nil
}

// debugRun carries one Debug pass's intermediate state across the
// pipeline stages. Debug and DebugAdvance share these stage methods, so
// the incremental path cannot drift from the from-scratch one: the only
// difference between them is where the influence analysis comes from
// (a fresh Scorer vs an advanced one) and whether the learner stages
// run at all.
type debugRun struct {
	req DebugRequest
	opt Options
	ord int
	out *DebugResult

	an            *influence.Analysis
	fBits         *bitset.Bitset // F over the source rows
	dprime        []int
	highInfluence []int
	// culpable is the cleaned D' ∪ the high-influence set over the source
	// rows: the ranker's Excess term.
	culpable *bitset.Bitset
	extras   []int
	learnPop []int
	sp       *feature.Space
}

// checkCtx is the between-stages cancellation point: every pipeline
// stage boundary polls the request context so a cancelled Debug stops
// before starting the next learner stage.
func (d *debugRun) checkCtx() error {
	if err := d.req.ctx().Err(); err != nil {
		return fmt.Errorf("core: debug cancelled: %w", err)
	}
	return nil
}

// preprocess records the influence analysis and derives the example and
// learning populations (Dataset Enumerator step 1) a word of F at a time.
func (d *debugRun) preprocess(an *influence.Analysis) error {
	opt, req, out := d.opt, d.req, d.out
	d.an = an
	out.Influence = an
	out.Eps = an.Eps
	out.F = an.F
	if len(an.F) == 0 {
		return fmt.Errorf("core: suspect groups have empty lineage")
	}

	defer obs.Start(req.ctx(), obs.Enumerate).End()
	d.fBits = an.Scorer.FBits() // shared, read-only
	d.dprime = nil
	for _, r := range req.Examples {
		if d.fBits.Get(r) {
			d.dprime = append(d.dprime, r)
		}
	}
	d.highInfluence = an.TopQuantileRows(opt.InfluenceQuantile)
	if len(d.dprime) == 0 {
		// No examples: the high-influence set stands in for D'.
		d.dprime = d.highInfluence
	}
	if len(d.dprime) == 0 {
		return fmt.Errorf("core: no influential tuples found (ε=%g); nothing to explain", an.Eps)
	}

	// The learners need a negative class. F − D' supplies part of it
	// ("an approximate set of error-free input tuples", per the paper);
	// we additionally sample contrast tuples from outside F — rows of
	// non-suspect groups are error-free by construction — so that
	// predicates can describe F itself when an entire group is bad, and
	// so they generalize against the rest of the table.
	d.extras = sampleOutside(d.fBits, min(max(len(an.F), 50), 20000))
	d.learnPop = learnPopulation(an.F, d.fBits, d.extras, opt.MaxLearnRows, d.culpableBits)
	return nil
}

// learnPopulation is the learners' population: F, then extras, or, past
// limit > 0 rows (maxLearnRows), limit of them ascending: F's first
// limit*3/4 culpable rows, then evenly spaced picks from the rest of F
// followed by extras. culpable lies within F, extras outside it.
func learnPopulation(F []int, fBits *bitset.Bitset, extras []int, limit int, culpable func() *bitset.Bitset) []int {
	if limit <= 0 || len(F)+len(extras) <= limit {
		return slices.Concat(F, extras)
	}
	cb, pop := culpable(), bitset.New(fBits.Len())
	f, c, m, taken := fBits.Words(), cb.Words(), pop.Words(), 0
	for w, x := range f {
		for x &= c[w]; x != 0 && taken < limit*3/4; x &= x - 1 {
			m[w], taken = m[w]|x&-x, taken+1
		}
	}
	others := len(F) - bitset.AndCount(fBits, cb) + len(extras)
	s := spaced{want: min(limit-taken, others)}
	s.step = float64(others) / float64(s.want) // 1 takes them all
	for w, x := range f {
		m[w] |= s.word(x &^ c[w])
	}
	for ; s.j < s.want; s.j++ {
		pop.Set(extras[int(float64(s.j)*s.step)-s.k])
	}
	return pop.Rows()
}

// culpableBits is D' (as it stands) ∪ the high-influence set over the
// source rows.
func (d *debugRun) culpableBits() *bitset.Bitset {
	n := d.req.Result.Source.NumRows()
	b := bitset.FromRows(n, d.dprime)
	b.Or(bitset.FromRows(n, d.highInfluence))
	return b
}

// featurize gathers and profiles the feature space over the learning
// population — all cleanExamples reads. The learners' thresholds and
// bins are enumerate's to add, so a carried pass never pays for them.
func (d *debugRun) featurize() error {
	defer obs.Start(d.req.ctx(), obs.Featurize).End()
	// The aggregated column is not explanation vocabulary: "temperature >
	// 100 explains high temperatures" is circular.
	d.sp = feature.NewSpace(d.req.Result.Source, feature.Options{
		Rows: d.learnPop, Exclude: aggColumns(d.req.Result, d.ord),
	})
	if len(d.sp.Attrs) == 0 {
		return fmt.Errorf("core: no usable attributes remain after exclusions")
	}
	return nil
}

// cleanExamples runs the D' consistency technique over user-supplied
// examples (Dataset Enumerator step 2a). Requires featurize.
func (d *debugRun) cleanExamples() {
	defer obs.Start(d.req.ctx(), obs.Enumerate).End()
	if len(d.req.Examples) > 0 && len(d.dprime) > 0 {
		d.dprime = cleaner.Clean(d.sp.Frame, d.dprime, d.fBits)
	}
	d.out.DPrime = d.dprime
	d.culpable = d.culpableBits()
}

// enumerate completes the feature space for the learners, then runs
// the Dataset Enumerator's subgroup discovery (step 2b) and the
// Predicate Enumerator's one tree on D', returning the ranker's
// candidate pool. Requires cleanExamples.
func (d *debugRun) enumerate() []ranker.Candidate {
	ctx := d.req.ctx()
	span := obs.Start(ctx, obs.Featurize)
	d.sp.Discretize()
	span.End()

	span = obs.Start(ctx, obs.Enumerate)
	dprimeBits := bitset.FromRows(d.req.Result.Source.NumRows(), d.dprime)
	labels := make([]bool, len(d.learnPop))
	for i, r := range d.learnPop {
		labels[i] = dprimeBits.Get(r)
	}
	// Subgroup discovery extends D' into a self-consistent region of the
	// population: its best rule and the one-selector alternatives are all
	// ranked against that region. Scored against its own cover, every
	// alternative would be a perfect separator.
	rules := subgroup.Discover(d.sp, labels)
	span.End()

	// --- Predicate Enumerator: the tree's positive leaves first, then the
	// subgroup rules; the ranker breaks ties in this order. ---
	span = obs.Start(ctx, obs.Predicates)
	defer span.End()
	var rcands []ranker.Candidate
	if tree, err := dtree.Train(d.sp, labels); err == nil {
		for _, leaf := range tree.PositivePaths() {
			if !leaf.Pred.IsTrue() {
				rcands = append(rcands, ranker.Candidate{Pred: leaf.Pred, Origin: "tree:dprime", Target: dprimeBits})
			}
		}
	}
	d.out.Candidates = 1
	if len(rules) > 0 {
		d.out.Candidates = 2
		region := bitset.FromRows(dprimeBits.Len(), rules[0].Covered)
		for _, r := range rules {
			if p := r.Predicate(d.sp); !p.IsTrue() {
				rcands = append(rcands, ranker.Candidate{Pred: p, Origin: "subgroup0", Target: region})
			}
		}
	}
	return rcands
}

// context builds the ranker's scoring context. Requires cleanExamples
// (culpability uses the cleaned D').
func (d *debugRun) context() *ranker.Context {
	// Culpability: tuples in the user's cleaned D' or the high-influence
	// set. The ranker's Excess term uses it to prefer surgical
	// predicates over "delete the whole group" ones.
	return &ranker.Context{
		Ctx: d.req.Ctx,
		Res: d.req.Result, Suspect: d.req.Suspect, Ord: d.ord,
		Metric: d.req.Metric, F: d.an.F, Population: d.learnPop, Culpable: d.culpable,
		Eps:          d.an.Eps,
		DisablePrune: d.opt.DisablePrune, DisableExcess: d.opt.DisableExcess,
		Scorer: d.an.Scorer, // the preprocessor's: lineage bitsets + flat argument column
	}
}

// finish truncates, renders the explanation list, ends the rank span,
// and snapshots Timings and the carry state for a later DebugAdvance.
func (d *debugRun) finish(scored []ranker.Scored, rstate *ranker.RankerState, rank obs.Span) {
	out, opt := d.out, d.opt
	if len(scored) > maxExplanations {
		scored = scored[:maxExplanations]
	}
	for _, s := range scored {
		e := Explanation{Scored: s}
		if i := strings.LastIndexByte(s.Origin, ':'); i >= 0 {
			e.Candidate = s.Origin[i+1:]
		} else {
			e.Candidate = s.Origin
		}
		out.Explanations = append(out.Explanations, e)
	}
	rank.End()
	out.Timings = obs.From(d.req.ctx()).Durations(obs.Preprocess, obs.Rank)
	out.state = &debugState{
		src:       d.req.Result.Source,
		stmtKey:   d.req.Result.Stmt.String(),
		ord:       d.ord,
		metricKey: metricKey(d.req.Metric),
		opt:       opt,
		an:        d.an,
		rstate:    rstate,
	}
	out.state.suspectKey = suspectKeyOf(d.req.Result, d.req.Suspect)
	out.state.examplesKey = rowsKey(d.req.Examples)
}

// Debug runs the ranked provenance pipeline. On an out-of-core source a
// chunk-load failure at any stage surfaces as an error wrapping
// *engine.SegmentLoadError, never as a panic.
func Debug(req DebugRequest) (_ *DebugResult, err error) {
	defer engine.CatchSegmentLoad(&err)
	if obs.From(req.ctx()) == nil {
		req.Ctx = obs.With(req.ctx(), new(obs.Record)) // what Timings views
	}
	opt := req.Opt
	opt.defaults()
	ord, err := resolveDebug(req)
	if err != nil {
		return nil, err
	}

	out := &DebugResult{Plan: DebugPlan{Mode: "full"}}
	d := &debugRun{req: req, opt: opt, ord: ord, out: out}

	// --- Preprocessor: lineage + leave-one-out influence. The lineage
	// is the provenance build's own stage. ---
	if _, err := req.Result.Provenance(req.ctx()); err != nil {
		return nil, err
	}
	span := obs.Start(req.Ctx, obs.Preprocess)
	an, err := influence.RankCtx(req.Ctx, req.Result, req.Suspect, ord, req.Metric)
	span.End()
	if err != nil {
		return nil, err
	}
	if err := d.preprocess(an); err != nil {
		return nil, err
	}
	if err := d.checkCtx(); err != nil {
		return nil, err
	}
	if err := d.featurize(); err != nil {
		return nil, err
	}
	d.cleanExamples()
	if err := d.checkCtx(); err != nil {
		return nil, err
	}
	rcands := d.enumerate()
	if err := d.checkCtx(); err != nil {
		return nil, err
	}

	span = obs.Start(req.Ctx, obs.Rank)
	scored, rstate, err := ranker.RankAllCarry(rcands, d.context())
	if err != nil {
		return nil, err
	}
	d.finish(scored, rstate, span)
	return out, nil
}

// DebugAdvance picks a Debug analysis up after the source table grew:
// req.Result must be (a version of) the result prev was computed over,
// advanced across one or more appended batches (exec.AdvanceCtx). Every
// carried structure — lineage bitsets, the argument view, the scored
// candidates — extends by the appended suffix, and so do the
// candidates' clause masks, which live in the table family's one index
// (predicate.Shared) and are asked for at req.Result's version. The
// influence ranking stands as it is while no suspect group's lineage
// grew, and the feature space is only profiled (for example cleaning)
// when the request has examples. What a carried pass still pays per
// learning-population row is the contrast sample and, with examples,
// the profile-only featurize and the naive Bayes pass that cleans them.
//
// A pass is "carried" or "full" (recorded in DebugResult.Plan): the
// carried candidates are rescored exactly against the advanced state and
// stand while the largest score movement stays within
// Options.DriftThreshold. Everything else runs Debug from scratch with
// Plan.Fallback saying why — no carried state, a changed statement,
// metric, aggregate, Options or suspect/example selection, an empty
// carried ranking, a moved retention base, or drift past the threshold.
// DebugAdvance with a nil prev is exactly Debug.
func DebugAdvance(prev *DebugResult, req DebugRequest) (_ *DebugResult, err error) {
	defer engine.CatchSegmentLoad(&err)
	if obs.From(req.ctx()) == nil {
		req.Ctx = obs.With(req.ctx(), new(obs.Record)) // shared with a fallback's Debug
	}
	opt := req.Opt
	opt.defaults()
	ord, err := resolveDebug(req)
	if err != nil {
		return nil, err
	}
	fall := func(reason string) (*DebugResult, error) {
		out, err := Debug(req)
		if err != nil {
			return nil, err
		}
		out.Plan.Fallback = reason
		return out, nil
	}
	if prev == nil || prev.state == nil {
		return fall("no carried analysis")
	}
	st := prev.state
	res := req.Result
	switch {
	case res.Stmt == nil || st.stmtKey != res.Stmt.String():
		return fall("statement changed")
	case !res.Source.SameFamily(st.src):
		return fall("source table changed")
	case res.Source.Base() != st.src.Base():
		// The carried analysis, its fingerprints and its ranking are
		// written in row ids local to the base they were computed at.
		return fall(fmt.Sprintf("retention: base moved from %d to %d", st.src.Base(), res.Source.Base()))
	case res.Source.NumRows() < st.src.NumRows():
		return fall("source table shrank")
	case st.ord != ord:
		return fall("debugged aggregate changed")
	case st.metricKey != metricKey(req.Metric):
		return fall("error metric changed")
	// The carried candidates answer one question under one configuration:
	// the learners never saw a new selection's lineage, and carried
	// rankings never mix regimes.
	case st.opt != opt:
		return fall("options changed")
	case st.rstate.Len() == 0:
		return fall("no carried ranking")
	case st.suspectKey != suspectKeyOf(res, req.Suspect):
		return fall("suspect selection changed")
	case st.examplesKey != rowsKey(req.Examples):
		return fall("example selection changed")
	}

	// --- Preprocessor, incremental: score the advanced result (its
	// provenance extends its nearest built ancestor's lineage bitsets and
	// argument view by the appended rows) and share the previous ranking
	// when no suspect group grew. ---
	if _, err := res.Provenance(req.ctx()); err != nil {
		return nil, err
	}
	span := obs.Start(req.Ctx, obs.Preprocess)
	sc, err := influence.NewScorer(res, req.Suspect, ord, req.Metric)
	if err != nil {
		return nil, err
	}
	an, err := influence.RankAdvancedCtx(req.Ctx, st.an, sc)
	if err != nil {
		return nil, err
	}

	out := &DebugResult{Plan: DebugPlan{Mode: "carried"}}
	d := &debugRun{req: req, opt: opt, ord: ord, out: out}
	span.End()
	if err := d.preprocess(an); err != nil {
		return nil, err
	}
	if err := d.checkCtx(); err != nil {
		return nil, err
	}
	// Example cleaning reads the feature space; without examples there is
	// nothing to clean.
	if len(req.Examples) > 0 {
		if err := d.featurize(); err != nil {
			return nil, err
		}
	}
	d.cleanExamples()

	span = obs.Start(req.Ctx, obs.Rank)
	scored, rstate, drift, err := st.rstate.Rescore(d.context())
	if err != nil {
		// Cancellation mid-rescore: st.rstate is untouched (Rescore works
		// on copies), so prev carries forward for a retry.
		return nil, err
	}
	if drift > opt.DriftThreshold {
		span.End()
		full, err := fall(fmt.Sprintf("drift %.3g past threshold %.3g", drift, opt.DriftThreshold))
		if err != nil {
			return nil, err
		}
		full.Plan.Drift = drift
		return full, nil
	}
	out.Plan.Drift = drift
	d.finish(scored, rstate, span)
	return out, nil
}

// aggColumns returns the source columns referenced by the ord'th
// aggregate's argument.
func aggColumns(res *exec.Result, ord int) []string {
	items := res.Stmt.Items
	aggSeen := 0
	for i := range items {
		if !items[i].IsAgg() {
			continue
		}
		if aggSeen == ord {
			if items[i].Agg.Arg == nil {
				return nil
			}
			return items[i].Agg.Arg.Columns(nil)
		}
		aggSeen++
	}
	return nil
}

// CleanAndRequery re-runs the result's statement with the predicate's
// tuples removed (WHERE ... AND NOT (pred)) — the "click a predicate"
// action. The returned result carries fresh provenance, so the user can
// immediately debug the cleaned view again.
func CleanAndRequery(res *exec.Result, pred predicate.Predicate) (*exec.Result, error) {
	return exec.Run(context.TODO(), res.Source, Cleaned(res.Stmt, pred))
}

// Cleaned is a copy of stmt with AND NOT (p) appended to its WHERE for
// each applied predicate, in order: the statement a cleaned view runs,
// and (rendered) the SQL the dashboard shows.
func Cleaned(stmt *sqlparse.SelectStmt, preds ...predicate.Predicate) *sqlparse.SelectStmt {
	s := stmt.Clone()
	for _, p := range preds {
		s.Where = expr.And(s.Where, p.NegationExpr())
	}
	return s
}

// ---------------------------------------------------------------------
// Selection helpers (the programmatic stand-ins for the dashboard's
// click-and-drag interactions)

// SuspectWhere returns the output rows whose value in the named result
// column satisfies keep. It is how examples select S programmatically.
func SuspectWhere(res *exec.Result, col string, keep func(v engine.Value) bool) ([]int, error) {
	ci := res.Table.Schema().ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("core: result has no column %q (have %s)", col, res.Table.Schema())
	}
	var out []int
	for r := 0; r < res.Table.NumRows(); r++ {
		if keep(res.Table.Value(r, ci)) {
			out = append(out, r)
		}
	}
	return out, nil
}

// ExamplesWhere is ExamplesWhereCtx without a context. bench/ only; goes
// with ROADMAP item 14.
func ExamplesWhere(res *exec.Result, suspect []int, cond string) ([]int, error) {
	return ExamplesWhereCtx(context.Background(), res, suspect, cond)
}

// ExamplesWhereCtx selects D' from the lineage of the suspect groups: the
// source rows satisfying the SQL condition cond (e.g.
// "temperature > 100"), ascending. This mirrors zooming into the raw
// tuples and highlighting outliers. It is the suspect lineage ∧ cond's
// WHERE mask: the groups' shared lineage bitsets (out-of-range suspects
// skipped) are the universe exec.FilterRows walks cond over, so a
// comparison against a constant or a LIKE on a string column reads a
// shared clause mask and anything else (arithmetic, function calls) is
// evaluated on lineage rows only — an error is one a lineage row raises.
// The lineage build and the walk poll ctx; a chunk-load failure is an
// error, as in Debug.
func ExamplesWhereCtx(ctx context.Context, res *exec.Result, suspect []int, cond string) ([]int, error) {
	e, err := sqlparse.ParseExpr(cond)
	if err != nil {
		return nil, err
	}
	if err := e.Resolve(res.Source.Schema()); err != nil {
		return nil, err
	}
	prov, err := res.Provenance(ctx)
	if err != nil {
		return nil, err
	}
	lineage := bitset.New(res.Source.NumRows())
	for _, ri := range suspect {
		if ri >= 0 && ri < len(res.Groups) {
			lineage.Or(prov.Bits(ri))
		}
	}
	pass, _, err := exec.FilterRows(ctx, res.Source, e, lineage)
	if err != nil {
		return nil, err
	}
	return pass.Rows(), nil
}

// sampleOutside returns up to want evenly spaced row ids in
// [0, exclude.Len()) not in exclude, a word of the complement at a time.
func sampleOutside(exclude *bitset.Bitset, want int) []int {
	n := exclude.Len()
	outside := n - exclude.Count()
	s := spaced{want: min(want, outside)}
	if s.want <= 0 {
		return nil
	}
	s.step = float64(outside) / float64(s.want)
	out := make([]int, 0, s.want)
	for w, x := range exclude.Words() { // no row past n is outside
		for p := s.word(^x & (1<<min(n-w*64, 64) - 1)); p != 0; p &= p - 1 {
			out = append(out, w*64+bits.TrailingZeros64(p))
		}
	}
	return out
}

// spaced picks want evenly spaced items of a sequence, the j'th at rank int(j*step).
type spaced struct {
	step       float64
	j, want, k int // picks made, picks wanted, items offered so far
}

// word offers x's set bits as the next items, ascending, and returns the
// ones it picks: a word with no pick costs one popcount.
func (s *spaced) word(x uint64) (picked uint64) {
	j, c, at := s.j, bits.OnesCount64(x), 0
	for ; j < s.want; j++ {
		t := int(float64(j)*s.step) - s.k
		if t >= c {
			break
		}
		for ; at < t; at++ {
			x &= x - 1
		}
		picked |= x & -x
	}
	s.j, s.k = j, s.k+c
	return picked
}
