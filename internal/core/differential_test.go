package core

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/exec"
	"repro/internal/influence"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// This file is the Debug carry's differential generator. A case is a
// seeded chain over a testgen table of 64-row segments: a DebugStmt (one
// chain in four debugs count(DISTINCT s)), a metric, a question (suspect
// groups and, sometimes, examples from their lineage) and 3–5 steps.
// Each step appends a batch that grows the groups already there, one
// that only founds new groups, or no rows; then maybe retains, asks a
// changed question (suspects, examples, metric, statement or Options) or
// races a retention and a mask request on the retained version between
// the advance and its Debug; then advances the result (exec.AdvanceCtx)
// and the last pass (DebugAdvance). One step per chain may first be
// cancelled at each of its failpoints (chaos.CancelEach),
// each attempt retried. Every pass goes through one check, sameDebug:
// mode, drift, ε, F, D′, influences, candidate count and every
// explanation field, bit for bit, against an oracle over an independently
// executed result of the same rows. A full pass must be Debug's; a
// carried pass must be Debug's analysis plus the carried candidates
// rescored on that result (rescoreOracle). The fallback reason must be
// the one the step's history calls for, the advanced scorer must answer
// influence.EpsWithoutRows on random row subsets, and a carried pass
// shares the influence ranking exactly when no suspect group grew. Each
// test at the bottom is a profile: the dimensions its chains draw and
// the states they must reach.

// dims are the dimensions a profile's chains draw from.
type dims uint

const (
	dGrow   dims = 1 << iota // appends that grow the groups already there
	dFresh                   // appends that only found new groups
	dRetain                  // a retention pass after an append
	dAsk                     // a changed question: suspects, examples, metric, statement or Options
	dDrift                   // a finite drift threshold instead of +Inf
	dStale                   // a retention and a mask rebase between an advance and its Debug
	dCancel                  // one step's DebugAdvance cancelled at each failpoint, then retried
	dAll    = dGrow | dFresh | dRetain | dAsk | dDrift | dStale | dCancel
)

// debugProfile is one use of the generator: seeds chains of steps steps
// (0: 3–5) drawn from dims (force's on every chain or step), and the
// states its chains must reach.
type debugProfile struct {
	seeds, steps int
	dims, force  dims
	want         string
}

func (p debugProfile) has(d dims, rng *rand.Rand, oneIn int) bool {
	return p.force&d != 0 || p.dims&d != 0 && rng.Intn(oneIn) == 0
}

// differential plays p's chains, each from its own seed, and fails the
// test unless they reached every state p wants.
func differential(t *testing.T, p debugProfile) {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	seen := map[string]bool{}
	for k := range p.seeds {
		seed := int64(h.Sum64()>>8) + int64(k)
		if err := p.chain(seed, k%4 == 0, seen); err != nil {
			t.Fatalf("%s chain %d (seed %d): %v", t.Name(), k, seed, err)
		}
	}
	for _, f := range strings.Fields(p.want) {
		if !seen[f] {
			t.Errorf("harness coverage: no chain reached %q (reached %v)", f, seen)
		}
	}
}

// chain plays one case and records the states its steps reached.
func (p debugProfile) chain(seed int64, distinct bool, seen map[string]bool) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	tbl := testgen.TableSeg(rng, 100+rng.Intn(150), engine.MinSegmentBits)
	res, err := exec.Run(ctx, tbl, debugStmt(rng, distinct))
	if err != nil {
		return nil // the statement errs on this table: nothing to debug
	}
	opt := Options{DriftThreshold: math.Inf(1)}
	if p.has(dDrift, rng, 2) {
		opt.DriftThreshold = []float64{1e-12, 0.01, 0}[rng.Intn(3)] // 0: the default
	}
	req := DebugRequest{Result: res, AggItem: -1, Metric: testgen.Metric(rng), Opt: opt}
	var prev *DebugResult // the last pass, over asked
	var asked DebugRequest
	steps, cancelAt := p.steps, -1
	if steps == 0 {
		steps = 3 + rng.Intn(3)
	}
	if p.has(dCancel, rng, 2) {
		cancelAt = rng.Intn(steps)
	}
	for step := range steps {
		// The table grows.
		var rows [][]engine.Value
		grow, fresh := p.has(dGrow, rng, 1), p.has(dFresh, rng, 1)
		switch {
		case !grow && !fresh || rng.Intn(8) == 0:
		case fresh && (!grow || rng.Intn(2) == 0):
			rows = freshGroupBatch(rng, 1+rng.Intn(30), step)
		default:
			rows = testgen.Batch(rng, enginetest.BoundaryBatchSize(rng, tbl))
		}
		if len(rows) > 0 {
			tbl = must(tbl.AppendBatch(rows))
		}
		if p.has(dRetain, rng, 2) {
			tbl, _ = enginetest.RetainStep(rng, tbl)
		}
		moved := tbl.Base() != req.Result.Source.Base()
		if req.Result, err = exec.AdvanceCtx(ctx, req.Result, tbl); err != nil {
			return fmt.Errorf("step %d: advance: %v", step, err)
		}
		if !moved && !req.Result.Plan.Incremental {
			return fmt.Errorf("step %d: the advance re-ran: %+v", step, req.Result.Plan)
		}

		// The question: asked again after a failed pass or a moved base
		// (a drop renumbers output rows), now and then changed.
		if prev == nil || moved {
			req.Suspect, req.Examples = drawRequest(rng, req.Result)
		} else if p.has(dAsk, rng, 3) {
			switch rng.Intn(5) {
			case 0:
				req.Suspect, req.Examples = drawRequest(rng, req.Result)
			case 1:
				req.Examples = drawExamples(rng, req.Result, req.Suspect)
			case 2:
				for m := req.Metric; metricKey(m) == metricKey(req.Metric); {
					req.Metric = testgen.Metric(rng)
				}
			case 3:
				for stmt := req.Result.Stmt; stmt.String() == req.Result.Stmt.String(); {
					if req.Result, err = exec.Run(ctx, tbl, testgen.DebugStmt(rng)); err != nil {
						return nil
					}
				}
				req.Suspect, req.Examples = drawRequest(rng, req.Result)
			default:
				req.Opt.DisablePrune = !req.Opt.DisablePrune
			}
		}
		if len(req.Suspect) == 0 {
			prev = nil
			continue
		}
		label := fmt.Sprintf("step %d [%s] suspects %v examples %v %+v", step, req.Result.Stmt, req.Suspect, req.Examples, req.Opt)

		// The oracle's rows: this version, or, when the retention race
		// runs, a copy in a family whose mask index never moved.
		src, stale := tbl, p.has(dStale, rng, 2) && tbl.Base() == 0 && tbl.NumRows() > 3*tbl.SegRows()
		if stale {
			src = freshCopy(tbl)
			keep := tbl.NumRows() - (1+rng.Intn(2))*tbl.SegRows()
			if tbl, _, err = tbl.RetainTail(engine.RetentionPolicy{MaxRows: keep}); err != nil {
				return err
			}
			predicate.Shared(tbl).Mask(tbl, predicate.NonNull(tbl.Schema()[0].Name))
		}
		oracle := req
		if oracle.Result, err = exec.Run(ctx, src, req.Result.Stmt); err != nil {
			return fmt.Errorf("%s: fresh run: %v", label, err)
		}
		if stale {
			want, werr := Debug(oracle)
			got, gerr := Debug(req)
			if err := sameDebug(want, werr, got, gerr); err != nil {
				return fmt.Errorf("%s: a Debug of the stale version: %v", label, err)
			}
		}

		call := func(c context.Context) (*DebugResult, error) {
			r := req
			r.Ctx = c
			return DebugAdvance(prev, r)
		}
		cancelled := 0
		if step == cancelAt {
			var err error
			cancelled, err = chaos.CancelEach(call, func(counted, got *DebugResult, err error) error {
				return sameDebug(counted, nil, got, err)
			})
			if err != nil {
				return fmt.Errorf("%s: %v", label, err)
			}
		}
		rec := new(obs.Record)
		got, gerr := call(obs.With(ctx, rec))
		want, reason, werr := passOracle(prev, oracle, wantFallback(prev, asked, req))
		if err := sameDebug(want, werr, got, gerr); err != nil {
			return fmt.Errorf("%s: %v", label, err)
		}
		if gerr != nil {
			prev = nil
			continue
		}
		if cancelled > 0 {
			seen["cancelled:"+got.Plan.Mode] = true
		}
		if !strings.HasPrefix(got.Plan.Fallback, reason) || (reason == "") != (got.Plan.Fallback == "") {
			return fmt.Errorf("%s: fallback %q, want %q", label, got.Plan.Fallback, reason)
		}
		passes := int64(1)
		if reason == "drift" {
			passes = 2 // the carried attempt, then the full Debug
		}
		for _, st := range []obs.Stage{obs.Preprocess, obs.Rank} {
			if rec.Count(st) != passes || got.Timings["preprocess"] <= 0 || got.Timings["rank"] <= 0 {
				return fmt.Errorf("%s: stage %d entered %d times, want %d; Timings %v", label, st, rec.Count(st), passes, got.Timings)
			}
		}
		if err := scorerOracle(rng, oracle, got.Influence.Scorer); err != nil {
			return fmt.Errorf("%s: %v", label, err)
		}
		if got.Plan.Mode == "carried" {
			if err := carriedStates(prev, asked, got, req, len(rows) == 0, seen); err != nil {
				return fmt.Errorf("%s: %v", label, err)
			}
		}
		seen[got.Plan.Mode] = true
		if stale && got.Plan.Mode == "carried" {
			seen["stale"] = true
		}
		if reason != "" {
			seen[strings.ReplaceAll(strings.TrimSuffix(reason, ":"), " ", "-")] = true
		}
		prev, asked = got, req
	}
	return nil
}

// wantFallback is the reason DebugAdvance(prev, req) must give for
// running a full Debug, in the order it checks them (retention: and
// drift by prefix), or "" when it must try the carry. asked is the
// request prev answered.
func wantFallback(prev *DebugResult, asked, req DebugRequest) string {
	firstRows := func(r DebugRequest) []int {
		out := make([]int, len(r.Suspect))
		for i, ri := range r.Suspect {
			out[i] = r.Result.Groups[ri].FirstRow
		}
		return slices.Sorted(slices.Values(out))
	}
	switch {
	case prev == nil:
		return "no carried analysis"
	case asked.Result.Stmt.String() != req.Result.Stmt.String():
		return "statement changed"
	case asked.Result.Source.Base() != req.Result.Source.Base():
		return "retention:"
	case metricKey(asked.Metric) != metricKey(req.Metric):
		return "error metric changed"
	case asked.Opt != req.Opt:
		return "options changed"
	case len(prev.Explanations) == 0:
		return "no carried ranking"
	case !slices.Equal(firstRows(asked), firstRows(req)):
		return "suspect selection changed"
	case !slices.Equal(asked.Examples, req.Examples):
		return "example selection changed"
	}
	return ""
}

// passOracle is what DebugAdvance(prev, ·) must answer for oracle's
// question over oracle's independently executed result, and the reason
// it must give: with reason "", Debug's analysis plus prev's candidates
// rescored there — unless they drift past the threshold, and the reason
// becomes "drift" — else Debug's.
func passOracle(prev *DebugResult, oracle DebugRequest, reason string) (*DebugResult, string, error) {
	drift, threshold := 0.0, cmp.Or(oracle.Opt.DriftThreshold, defaultDriftThreshold)
	if reason == "" {
		carried, err := rescoreOracle(prev, oracle)
		if err != nil || carried.Plan.Drift <= threshold {
			return carried, reason, err
		}
		reason, drift = "drift", carried.Plan.Drift
	}
	full, err := Debug(oracle)
	if err == nil {
		full.Plan.Drift = drift
	}
	return full, reason, err
}

// rescoreOracle is a carried pass computed from scratch: Debug's own
// preprocessing and example cleaning over req's result, then prev's
// carried candidates rescored through a fresh scorer.
func rescoreOracle(prev *DebugResult, req DebugRequest) (*DebugResult, error) {
	opt := req.Opt
	opt.defaults()
	ord, err := resolveDebug(req)
	if err != nil {
		return nil, err
	}
	an, err := influence.RankCtx(context.Background(), req.Result, req.Suspect, ord, req.Metric)
	if err != nil {
		return nil, err
	}
	out := &DebugResult{Plan: DebugPlan{Mode: "carried"}}
	d := &debugRun{req: req, opt: opt, ord: ord, out: out}
	if err := d.preprocess(an); err != nil {
		return nil, err
	}
	if len(req.Examples) > 0 {
		if err := d.featurize(); err != nil {
			return nil, err
		}
	}
	d.cleanExamples()
	scored, rstate, drift, err := prev.state.rstate.Rescore(d.context())
	if err != nil {
		return nil, err
	}
	d.finish(scored, rstate, obs.Span{})
	out.Plan.Drift = drift
	return out, nil
}

// scorerOracle holds sc, the scorer a pass ranked through, to the boxed
// reference: ε without a random row subset, sparse, half or dense.
func scorerOracle(rng *rand.Rand, oracle DebugRequest, sc *influence.Scorer) error {
	n, p := oracle.Result.Source.NumRows(), []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
	var rows []int
	for r := range n {
		if rng.Float64() < p {
			rows = append(rows, r)
		}
	}
	want, err := influence.EpsWithoutRows(oracle.Result, oracle.Suspect, 0, oracle.Metric, rows)
	if err != nil {
		return fmt.Errorf("EpsWithoutRows: %v", err)
	}
	if got := sc.EpsWithoutBits(bitset.FromRows(n, rows), sc.NewScratch()); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		return fmt.Errorf("ε without %d of %d rows: scorer %v, EpsWithoutRows %v", len(rows), n, got, want)
	}
	return nil
}

// carriedStates checks what a carried pass got (over req) shares with
// prev (over asked): the influence ranking exactly when no suspect group
// grew, and after an empty append the ranking itself, with no drift.
func carriedStates(prev *DebugResult, asked DebugRequest, got *DebugResult, req DebugRequest, empty bool, seen map[string]bool) error {
	grew := false
	for _, ri := range req.Suspect {
		grew = grew || ri >= len(asked.Result.Groups) || req.Result.Groups[ri].Rows != asked.Result.Groups[ri].Rows
	}
	if len(got.Influence.Influences) > 0 {
		shared := &got.Influence.Influences[0] == &prev.Influence.Influences[0]
		if shared == grew {
			return fmt.Errorf("a suspect group grew %v, the influence ranking shared %v", grew, shared)
		}
		seen[map[bool]string{true: "shared", false: "recomputed"}[shared]] = true
	}
	if empty {
		was := *prev
		was.Explanations = slices.Clone(prev.Explanations)
		for i := range was.Explanations {
			was.Explanations[i].Provenance = "carried"
		}
		was.Plan, was.Candidates = got.Plan, got.Candidates
		if err := sameDebug(&was, nil, got, nil); err != nil || got.Plan.Drift != 0 {
			return fmt.Errorf("an empty append moved the carried ranking (drift %v): %v", got.Plan.Drift, err)
		}
		seen["stable"] = true
	}
	if len(req.Examples) > 0 {
		seen["examples"] = true
	}
	if req.Result.Stmt.Items[len(req.Result.Stmt.GroupBy)].Agg.Distinct {
		seen["distinct"] = true
	}
	return nil
}

// sameDebug is the one check: two passes' errors agree, and their
// answers match bit for bit (rendered).
func sameDebug(want *DebugResult, wantErr error, got *DebugResult, gotErr error) error {
	if (wantErr != nil) != (gotErr != nil) {
		return fmt.Errorf("error %v, oracle's %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	w, g := rendered(want), rendered(got)
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Errorf("line %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Errorf("%d lines, oracle's %d:\n got %s\nwant %s", len(g), len(w), g, w)
	}
	return nil
}

// rendered is a pass's answer, one line per part, every float as its
// value and its bits: mode and drift, ε, F, D′, the candidate count,
// each influence and each explanation.
func rendered(d *DebugResult) []string {
	f := func(v float64) string { return fmt.Sprintf("%v/%x", v, math.Float64bits(v)) }
	out := []string{
		fmt.Sprintf("%s drift %s ε %s candidates %d", d.Plan.Mode, f(d.Plan.Drift), f(d.Eps), d.Candidates),
		fmt.Sprint("F ", d.F), fmt.Sprint("D′ ", d.DPrime),
	}
	for _, in := range d.Influence.Influences {
		out = append(out, fmt.Sprintf("influence row %d group %d δ %s", in.Row, in.GroupRow, f(in.Delta)))
	}
	for _, e := range d.Explanations {
		out = append(out, fmt.Sprintf("%s origin %s %s candidate %s Δε %s ε′ %s P %s R %s F1 %s culpable %s score %s clauses %d tuples %d",
			e.Pred, e.Origin, e.Provenance, e.Candidate, f(e.ErrImprovement), f(e.EpsAfter), f(e.Precision), f(e.Recall),
			f(e.F1), f(e.CulpableFrac), f(e.Score), e.Complexity, e.NumTuples))
	}
	return out
}

// drawRequest draws one question: suspect groups, ascending, and
// sometimes user examples from their lineage.
func drawRequest(rng *rand.Rand, res *exec.Result) (suspect, examples []int) {
	suspect = slices.Sorted(slices.Values(testgen.Suspects(rng, res)))
	if len(suspect) == 0 || rng.Float64() >= 0.3 {
		return suspect, nil
	}
	return suspect, drawExamples(rng, res, suspect)
}

// drawExamples highlights a random slice of the suspect groups' lineage.
func drawExamples(rng *rand.Rand, res *exec.Result, suspect []int) (examples []int) {
	for _, r := range res.Lineage(suspect) {
		if rng.Float64() < 0.3 {
			examples = append(examples, r)
		}
	}
	return examples
}

// debugStmt draws a DebugStmt; with distinct set it redraws until the
// debugged (first) aggregate is count(DISTINCT s), which the generator
// does on every fourth chain so the shape is always among its cases.
func debugStmt(rng *rand.Rand, distinct bool) *sqlparse.SelectStmt {
	for {
		if stmt := testgen.DebugStmt(rng); !distinct || stmt.Items[len(stmt.GroupBy)].Agg.Distinct {
			return stmt
		}
	}
}

// freshGroupBatch draws k rows whose s, i and j no generator has drawn
// before (tag makes them unique): under every DebugStmt grouping they
// found new groups, so the table grows and no existing group's lineage
// does — how a monitored stream usually grows.
func freshGroupBatch(rng *rand.Rand, k, tag int) [][]engine.Value {
	rows := testgen.Batch(rng, k)
	for _, r := range rows {
		r[0] = engine.NewInt(int64(1000 + 3*tag)) // its own bucket(i, 3) too
		r[1] = engine.NewInt(int64(100 + tag))
		r[3] = engine.NewString(fmt.Sprintf("fresh%d", tag))
	}
	return rows
}

// freshCopy is v's rows in a new table family of the same segment size.
func freshCopy(v *engine.Table) *engine.Table {
	rows := make([][]engine.Value, v.NumRows())
	for r := range rows {
		rows[r] = v.Row(r)
	}
	return must(must(engine.NewTableSeg("p", v.Schema(), engine.MinSegmentBits)).AppendBatch(rows))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Every dimension at once.
func TestDebugAdvanceDifferential(t *testing.T) {
	differential(t, debugProfile{seeds: 24, dims: dAll, want: "full carried shared recomputed stable drift retention " +
		"cancelled:carried distinct examples no-carried-analysis statement-changed error-metric-changed " +
		"options-changed suspect-selection-changed example-selection-changed"})
}

// The same question across batches that grow suspect groups and batches
// that only found new ones: the influence ranking is recomputed or
// shared, and under a finite threshold some passes drift.
func TestDebugAdvanceCarried(t *testing.T) {
	differential(t, debugProfile{seeds: 10, dims: dDrift, force: dGrow | dFresh, want: "carried shared recomputed drift examples distinct"})
}

// A step across a retention horizon runs a full Debug with a retention
// reason; within one base the same question carries.
func TestDebugAdvanceRetentionDifferential(t *testing.T) {
	differential(t, debugProfile{seeds: 8, force: dGrow | dRetain, want: "carried retention distinct"})
}

// A retention runs after a query and before its Debug, and a mask
// request rebases the family's index: Debug and DebugAdvance of the
// stale version answer what a family whose index never moved answers.
func TestDebugStaleVersion(t *testing.T) {
	differential(t, debugProfile{seeds: 6, force: dGrow | dStale, want: "stale carried retention"})
}

// A changed question runs a full Debug and says what changed.
func TestDebugAdvanceChangedSelectionRunsFull(t *testing.T) {
	differential(t, debugProfile{seeds: 12, force: dGrow | dAsk, want: "statement-changed error-metric-changed " +
		"options-changed suspect-selection-changed example-selection-changed"})
}

// Debug twice, over two independently executed results of one version,
// answers alike.
func TestDebugDeterminism(t *testing.T) {
	differential(t, debugProfile{seeds: 8, steps: 1, want: "full no-carried-analysis"})
}

// The scorer of a result advanced across growing and group-founding
// appends answers EpsWithoutRows, and its ranking is shared exactly when
// no suspect group grew.
func TestAdvanceScorerDifferential(t *testing.T) {
	differential(t, debugProfile{seeds: 8, force: dGrow | dFresh, want: "shared recomputed distinct examples"})
}

// An empty append carries the ranking unmoved: no drift, the same
// explanations.
func TestRescoreStableContext(t *testing.T) {
	differential(t, debugProfile{seeds: 6, want: "carried stable shared examples"})
}

// Carried candidates rescored over an advanced result rank as they do
// over a fresh one.
func TestRescoreAdvancedContext(t *testing.T) {
	differential(t, debugProfile{seeds: 8, force: dGrow, want: "carried recomputed distinct examples"})
}

// A DebugAdvance cancelled at any failpoint leaves the carried state as
// it was: the retry answers what an uncancelled pass answers.
func TestMatrixDebugAdvance(t *testing.T) {
	differential(t, debugProfile{seeds: 4, force: dGrow | dCancel, want: "cancelled:carried cancelled:full distinct"})
}
