package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// Plan shapes beside the generator's answers (differential_test.go): the
// pipeline runs every grouped shape; a WHERE lowers where it can,
// evaluates the rest only on the rows left, and stops once none is; the
// masked fold engages where it may. Every statement is checked too.

func vectorTestTable(t *testing.T) *engine.Table {
	t.Helper()
	tbl := engine.MustNewTable("v", engine.NewSchema("city", engine.TString, "pop", engine.TInt, "temp", engine.TFloat))
	s, i, f := engine.NewString, engine.NewInt, engine.NewFloat
	return must(tbl.AppendBatch([][]engine.Value{
		{s("ann"), i(10), f(1.5)}, {s("bos"), i(20), f(2.5)}, {s("ann"), i(30), engine.Null},
		{engine.Null, i(40), f(-1)}, {s("cam"), engine.Null, f(4)}, {s("bos"), i(60), f(0.25)},
	}))
}

// vectorTestTableSegs repeats vectorTestTable's rows into a table of the
// minimum segment size until it spans segs segments: segs fold blocks.
func vectorTestTableSegs(t *testing.T, segs int) *engine.Table {
	src := vectorTestTable(t)
	var rows [][]engine.Value
	for len(rows) < segs<<engine.MinSegmentBits {
		rows = append(rows, batchOf(src, 0)...)
	}
	return must(must(engine.NewTableSeg("v", src.Schema(), engine.MinSegmentBits)).AppendBatch(rows))
}

// wantPlans runs each statement on tbl through runBoth and holds its
// plan to what the case says it shows.
func wantPlans(t *testing.T, tbl *engine.Table, cases map[string]func(PlanInfo) bool) {
	t.Helper()
	for sql, ok := range cases {
		if res := runBoth(t, tbl, sql); !ok(res.Plan) {
			t.Errorf("[%s] over %d-row segments: plan %+v", sql, tbl.SegRows(), res.Plan)
		}
	}
}

func pipelined(p PlanInfo) bool { return p.Vectorized && p.Fallback == "" }

func lowered(p PlanInfo) bool { return pipelined(p) && p.WhereLowered }

func TestVectorPlanLoweredWhere(t *testing.T) {
	wantPlans(t, vectorTestTable(t), map[string]func(PlanInfo) bool{
		`SELECT city, sum(pop) AS s FROM v WHERE pop >= 20 AND NOT (temp < 0 OR city = 'cam') GROUP BY city`: lowered,
		`SELECT city, count(*) AS c FROM v WHERE temp IS NOT NULL AND city IN ('ann', 'bos') GROUP BY city`:  lowered,
		`SELECT city, count(*) AS c FROM v WHERE pop BETWEEN 15 AND 45 GROUP BY city`:                        lowered,
	})
}

// length() has no clause-mask lowering: the one conjunct is residual and
// evaluates per row, while grouping stays on the pipeline.
func TestVectorPlanAllResidualFilter(t *testing.T) {
	wantPlans(t, vectorTestTable(t), map[string]func(PlanInfo) bool{
		`SELECT city, sum(pop) AS s FROM v WHERE length(city) > 2 GROUP BY city`: func(p PlanInfo) bool {
			return pipelined(p) && !p.WhereLowered && p.ResidualConjuncts == 1 && p.ResidualRows == 6
		},
	})
}

// A filtered global DISTINCT over a numeric column (the benchmark's
// distinct request) folds under the block mask like any other, and
// DISTINCT sets merge: over six fold blocks, the blocks' sets union to
// the sequential scan's.
func TestVectorPlanDistinctRunsInPipeline(t *testing.T) {
	sqls := []string{`SELECT count(DISTINCT city) AS c FROM v`, `SELECT pop, count(DISTINCT city) AS c, sum(DISTINCT temp) AS s FROM v GROUP BY pop`}
	wantPlans(t, vectorTestTable(t), map[string]func(PlanInfo) bool{
		sqls[0]: pipelined, sqls[1]: pipelined,
		`SELECT count(DISTINCT temp) AS c FROM v WHERE pop = 20`: func(p PlanInfo) bool { return p.MaskedAgg },
	})
	six := func(p PlanInfo) bool { return pipelined(p) && p.Shards == 6 }
	wantPlans(t, vectorTestTableSegs(t, 6), map[string]func(PlanInfo) bool{sqls[0]: six, sqls[1]: six})
}

// refusingAgg is a state whose Merge always refuses — the broken
// aggregate foldBlocks must report instead of silently re-running.
type refusingAgg struct{ agg.Sum }

func (r *refusingAgg) Clone() agg.Func     { return &refusingAgg{} }
func (r *refusingAgg) Merge(agg.Func) bool { return false }

func TestMergeRefusalIsAnInternalError(t *testing.T) {
	tbl := vectorTestTable(t)
	stmt := mustParse(`SELECT count(*) AS c FROM v`)
	_, aggItems, _, err := prepare(tbl, stmt)
	fatalIf(t, "prepare", err)
	p := must(planVector(context.Background(), tbl, stmt, aggItems, []agg.Func{&refusingAgg{}}, 0))
	ss := newScanner(p)
	defer ss.close()
	a := must(ss.run(0, 3, nil))
	b, err := ss.run(3, 6, nil)
	fatalIf(t, "scan", err)
	if _, err := foldBlocks(p, nil, [][]*vGroup{a, b}, -1); !errors.Is(err, errMerge) {
		t.Fatalf("merge refusal returned %v, want errMerge", err)
	}
}

// A projection's lineage is one source row per output row.
func TestProjectionUsesLoweredFilter(t *testing.T) {
	wantPlans(t, vectorTestTable(t), map[string]func(PlanInfo) bool{
		`SELECT city, pop FROM v WHERE pop > 15 AND city != 'cam'`: func(p PlanInfo) bool { return p.WhereLowered },
		`SELECT city FROM v WHERE length(city) = 3`: func(p PlanInfo) bool {
			return !p.WhereLowered && p.FilterFallback == fallbackFilterShape
		},
	})
	res := runBoth(t, vectorTestTable(t), `SELECT city, pop FROM v WHERE pop > 15 AND city != 'cam'`)
	if l := res.Lineage(seq(res.NumRows())); len(l) != res.NumRows() {
		t.Fatalf("projection lineage %v over %d rows", l, res.NumRows())
	}
}

// TestVectorShardedMatchesSingleShard: the same rows in six fold blocks
// and in one (a default-segment table) answer alike — the values here are
// exact, so the fold order cannot show.
func TestVectorShardedMatchesSingleShard(t *testing.T) {
	many := vectorTestTableSegs(t, 6)
	sql := `SELECT city, sum(pop) AS s, min(temp) AS m FROM v GROUP BY city`
	a, b := runBoth(t, segCopy(many, engine.DefaultSegmentBits), sql), runBoth(t, many, sql)
	if a.Plan.Shards != 1 || b.Plan.Shards != 6 {
		t.Fatalf("fold blocks: %+v vs %+v", a.Plan, b.Plan)
	}
	check(t, sql, a, b)
}

// maskedAggSQL spans every float-fed aggregate over parityTable's
// awkward float column: the masked fold's shape.
const maskedAggSQL = "SELECT count(*) AS n, sum(f) AS sf, avg(f) AS af, min(f) AS mn, max(f) AS mx, stddev(f) AS sd FROM p"

// TestMaskedAggDensities: a global float-fed aggregation folds under the
// filter mask (Plan.MaskedAgg) at every filter density.
func TestMaskedAggDensities(t *testing.T) {
	tbl := parityTable(rand.New(rand.NewSource(17)), 5000, engine.DefaultSegmentBits)
	for _, tc := range []struct{ name, where string }{
		{"empty", "i > 100"},                          // zero survivors: no group at all
		{"sparse", "f = 3.25"},                        // ~1/64 of rows: one bit per word territory
		{"half", "i >= 0"},                            // ~half the rows survive
		{"full", "j >= 0"},                            // j has no NULLs: the mask fills
		{"like", "i >= 2 AND s LIKE 'a%'"},            // two lowered conjuncts
		{"residual", "i >= 2 AND lower(s) LIKE 'a%'"}, // lowered prefix + residual conjunct
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tbl := range []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} {
				wantPlans(t, tbl, map[string]func(PlanInfo) bool{
					maskedAggSQL + " WHERE " + tc.where: func(p PlanInfo) bool { return p.Vectorized && p.MaskedAgg },
				})
			}
		})
	}
}

// TestMaskedAggEligibility: statements outside the masked fold's shape —
// no WHERE, computed or boxed arguments, GROUP BY — do not claim it.
func TestMaskedAggEligibility(t *testing.T) {
	masked := func(p PlanInfo) bool { return p.MaskedAgg }
	notMasked := func(p PlanInfo) bool { return !p.MaskedAgg }
	wantPlans(t, parityTable(rand.New(rand.NewSource(19)), 2000, engine.DefaultSegmentBits), map[string]func(PlanInfo) bool{
		"SELECT sum(f) AS sf FROM p WHERE i >= 0":            masked,
		"SELECT sum(f) AS sf FROM p":                         notMasked, // no filter mask to fold under
		"SELECT sum(f + 1) AS sf FROM p WHERE i >= 0":        notMasked, // computed argument
		"SELECT count(s) AS cs FROM p WHERE i >= 0":          notMasked, // boxed column argument
		"SELECT median(f) AS md FROM p WHERE i >= 0":         masked,    // median appends floats: still float-fed
		"SELECT sum(f) AS sf FROM p WHERE i >= 0 GROUP BY j": notMasked, // grouped
	})
}

// i >= 4 keeps about 2/11 of the rows (i uniform in [-5, 5], 15% NULL):
// the LIKE after it is evaluated on those alone.
func TestResidualFilterEngages(t *testing.T) {
	wantPlans(t, parityTable(rand.New(rand.NewSource(11)), 4000, engine.DefaultSegmentBits), map[string]func(PlanInfo) bool{
		"SELECT j, sum(f) AS sf, count(*) AS n FROM p WHERE i >= 4 AND lower(s) LIKE 'a%' GROUP BY j": func(p PlanInfo) bool {
			return lowered(p) && p.FilterFallback == "" && p.FilterConjuncts == 2 && p.ResidualConjuncts == 1 && p.ResidualRows > 0 && p.ResidualRows < 2000
		},
	})
}

func kernels(n int) func(PlanInfo) bool {
	return func(p PlanInfo) bool { return pipelined(p) && p.KeyKernels == n }
}

// TestKeyKernelsPlanned pins PlanInfo.KeyKernels: it counts the keys
// planned as kernels — one for the Figure 4 statement, none for a
// string-valued computed key or bare columns — whatever blocks decline.
func TestKeyKernelsPlanned(t *testing.T) {
	readings, _ := datasets.Intel(datasets.IntelConfig{Rows: 2000, Seed: 1})
	if res, err := Run(t.Context(), readings, mustParse(datasets.IntelWindowSQL)); err != nil || res.Plan.KeyKernels != 1 {
		t.Fatalf("Figure 4 statement: %v, want one kernel (%+v)", err, res.Plan)
	}
	wantPlans(t, parityTable(rand.New(rand.NewSource(3)), 300, engine.DefaultSegmentBits), map[string]func(PlanInfo) bool{
		"SELECT lower(s) AS k, count(*) AS n FROM p GROUP BY lower(s)":                                     kernels(0),
		"SELECT s, f, count(*) AS n FROM p GROUP BY s, f":                                                  kernels(0),
		"SELECT count(*) AS n FROM p WHERE f > 0":                                                          kernels(0),
		"SELECT coalesce(i, 0) AS k, count(*) AS n FROM p GROUP BY coalesce(i, 0)":                         kernels(0),
		"SELECT -i AS k, sqrt(f) AS r, lower(s) AS l, count(*) AS n FROM p GROUP BY -i, sqrt(f), lower(s)": kernels(2),
	})
	// One block holds an int past 2^53, so a kernel reading i declines
	// that block alone (a 64-row segment, or one scan block of a default
	// segment): the count stays the planned kernels', filtered or not, and
	// through an advance whose suffix holds another such block.
	poisoned := func(rng *rand.Rand, n, at int) [][]engine.Value {
		rows := genRows(rng, n, 5, false)
		rows[at][0] = engine.NewInt(1<<53 + 1)
		return rows
	}
	for segBits, at := range map[uint]int{engine.MinSegmentBits: 5*64 + 17, engine.DefaultSegmentBits: blockRows + 500} {
		rng := rand.New(rand.NewSource(19))
		tbl := must(must(engine.NewTableSeg("p", genSchema, segBits)).AppendBatch(poisoned(rng, 3*blockRows+100, at)))
		grown := must(tbl.AppendBatch(poisoned(rng, 100, 50)))
		for sql, n := range map[string]int{
			"SELECT bucket(i, 3) AS a, s, lower(s) AS l, count(*) AS n, avg(f) AS v FROM p WHERE j >= 1 GROUP BY bucket(i, 3), s, lower(s)":       1,
			"SELECT i * 2 - j AS a, floor(f / 2) AS b, sum(f + j) AS c FROM p WHERE f + 0.25 > 0 AND s LIKE '%' GROUP BY i * 2 - j, floor(f / 2)": 2,
		} {
			res := runBoth(t, tbl, sql)
			adv := must(AdvanceCtx(t.Context(), res, grown))
			if check(t, sql+" (advanced)", must(runRef(grown, res.Stmt)), adv); res.Plan.KeyKernels != n || adv.Plan.KeyKernels != n || !adv.Plan.Incremental {
				t.Errorf("[%s] over %d-row segments: KeyKernels %d, then %d (%+v), want %d", sql, tbl.SegRows(), res.Plan.KeyKernels, adv.Plan.KeyKernels, adv.Plan, n)
			}
		}
	}
}

// TestOrderedBlocksFigure4 pins PlanInfo.OrderedBlocks on the Figure 4
// window query over the time-ordered Intel trace: every scan block takes
// the ordered path, fresh and over an advance's suffix, and the answers,
// lineage included, are the reference's.
func TestOrderedBlocksFigure4(t *testing.T) {
	const n, from = 100_000, 60 * blockRows
	readings, _ := datasets.Intel(datasets.IntelConfig{Rows: n, Seed: 1})
	head := must(must(engine.NewTableSeg(readings.Name(), readings.Schema(), readings.SegmentBits())).AppendCols(readings.Batch(0, from), 0, from))
	grown := must(head.AppendCols(readings.Batch(from, n), 0, n-from))
	res := runBoth(t, head, datasets.IntelWindowSQL)
	adv := must(AdvanceCtx(t.Context(), res, grown))
	check(t, "advanced", must(runRef(grown, res.Stmt)), adv)
	blocks := func(rows int) int { return (rows + blockRows - 1) / blockRows }
	if res.Plan.OrderedBlocks != blocks(from) || !adv.Plan.Incremental || adv.Plan.OrderedBlocks != blocks(n-from) {
		t.Fatalf("ordered blocks %d, then %d (%+v); want every block's", res.Plan.OrderedBlocks, adv.Plan.OrderedBlocks, adv.Plan)
	}
}

// TestKeyKernelFirstError pins the error a column-at-a-time block
// reports to the row-at-a-time reference's: the lowest erroring row's,
// and on one row a key's before an argument's. epoch(i) errs on every
// row whose i is not NULL, f + s on every row where neither is; the
// fixture moves the first such row of each around a block, and a kernel
// key rides along.
func TestKeyKernelFirstError(t *testing.T) {
	const n = 3*64 + 20
	build := func(firstKeyErr, firstArgErr int) *engine.Table {
		rows := make([][]engine.Value, n)
		for r := range rows {
			rows[r] = []engine.Value{engine.Null, engine.NewInt(int64(r % 5)), engine.Null, engine.NewString("a"), engine.NewTimeUnix(int64(r))}
			if r >= firstKeyErr {
				rows[r][0] = engine.NewInt(int64(r))
			}
			if r >= firstArgErr {
				rows[r][2] = engine.NewFloat(0.5)
			}
		}
		return must(must(engine.NewTableSeg("p", genSchema, engine.MinSegmentBits)).AppendBatch(rows))
	}
	const sql = "SELECT bucket(j, 2) AS b, epoch(i) AS e, count(*) AS n, sum(f + s) AS bad FROM p GROUP BY bucket(j, 2), epoch(i)"
	for _, tc := range []struct {
		name           string
		keyErr, argErr int
		want           string
	}{
		{"key errs first, same block", 70, 100, "epoch()"},
		{"argument errs first, same block", 100, 70, "non-numeric"},
		{"both on one row: the key's", 80, 80, "epoch()"},
		{"argument errs a block earlier", 150, 20, "non-numeric"},
		{"key errs a block earlier", 20, 150, "epoch()"},
	} {
		tbl := build(tc.keyErr, tc.argErr)
		_, refErr := runRef(tbl, mustParse(sql))
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v, want one naming %q", tc.name, refErr, tc.want)
		}
		if _, err := Run(t.Context(), tbl, mustParse(sql)); err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, reference's is %v", tc.name, err, refErr)
		}
	}
}

// TestBlockPollCadence pins the cancellation cadence of the block loop: a
// scanner polls before any block that would put more than ctxCheckRows rows
// between two polls, whatever the segment size and wherever its range
// starts (an Advance suffix starts mid-word). Cancelled at each poll in
// turn, the scan has folded exactly the rows before it.
func TestBlockPollCadence(t *testing.T) {
	for _, segBits := range []uint{engine.MinSegmentBits, 8, 12, 13, engine.DefaultSegmentBits} {
		const n = 5*ctxCheckRows + 777
		tbl := parityTable(rand.New(rand.NewSource(5)), n, segBits)
		stmt := mustParse("SELECT bucket(epoch(t), 1800) AS w, count(*) AS n, avg(f) AS a FROM p GROUP BY bucket(epoch(t), 1800)")
		_, aggItems, protos, err := prepare(tbl, stmt)
		fatalIf(t, "prepare", err)
		for _, lo := range []int{0, 1000, ctxCheckRows + 64} {
			last, polls := lo, 0
			for k := 0; ; k++ {
				p, err := planVector(chaos.CancelAfter(k), tbl, stmt, aggItems, protos, lo)
				if errors.Is(err, context.Canceled) {
					continue // planning polls too
				}
				fatalIf(t, "plan", err)
				ss := newScanner(p)
				_, err = ss.run(lo, n, nil)
				at := lo // the rows the groups counted (no WHERE: every row passes)
				for _, vg := range ss.groups {
					at += vg.g.Rows
				}
				if ss.close(); err == nil {
					if at != n {
						t.Fatalf("segBits %d lo %d: %d rows pending", segBits, lo, n-at)
					}
					break
				}
				if polls++; !errors.Is(err, context.Canceled) || at-last > ctxCheckRows {
					t.Fatalf("segBits %d lo %d: %d rows scanned between polls %d and %d (err %v)", segBits, lo, at-last, polls-1, polls, err)
				}
				last = at
			}
			if want := (n - lo) / ctxCheckRows; polls < want || (segBits >= 12 && polls > want+2) {
				t.Fatalf("segBits %d lo %d: %d polls over %d rows, want about %d", segBits, lo, polls, n-lo, want)
			}
		}
	}
}

// TestShortCircuitBuildsNoSkippedMask: once an all-lowered AND chain's
// prefix leaves no row, the walk stops. The conjuncts after it count in
// Plan.FilterShortCircuited, and their masks are never built: no chunk
// of their columns is pinned.
func TestShortCircuitBuildsNoSkippedMask(t *testing.T) {
	src := parityTable(rand.New(rand.NewSource(8)), 5*64+10, engine.MinSegmentBits)
	twin, loader := enginetest.Faultable(src)
	pinned := map[int]bool{}
	loader.Fail = func(seg, col int) error { pinned[col] = true; return nil }
	res := runOracle(t, loaderPinned(loader), twin, src, "SELECT j, count(*) AS n FROM p WHERE i > 100 AND f < 0 AND s = 'a' GROUP BY j")
	if res.Plan.FilterShortCircuited != 2 || pinned[src.Schema().ColIndex("f")] || pinned[src.Schema().ColIndex("s")] {
		t.Fatalf("the skipped conjuncts' masks were built: pinned columns %v, plan %+v", pinned, res.Plan)
	}
}

// TestOrRootLowering pins OR at the root of the WHERE: it is a chain of
// one conjunct, lowered through the Kleene combinators when every arm
// lowers and evaluated as one residual when any arm does not.
func TestOrRootLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := parityTable(rng, 3000, engine.DefaultSegmentBits)
	tables := []*engine.Table{tbl, segCopy(tbl, engine.MinSegmentBits)} // one fold block, then 47
	for _, tc := range []struct {
		sql     string
		lowered bool
	}{
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR i > 3 OR f < -7 GROUP BY j", true},
		// j >= 0 is TRUE for every row (j has no NULLs): the union fills.
		{"SELECT i, count(*) AS n FROM p WHERE j >= 0 OR s = 'b' OR f > 2 GROUP BY i", true},
		{"SELECT j, count(*) AS n FROM p WHERE (i > 0 AND s = 'a') OR (f < 0 AND NOT j = 2) GROUP BY j", true},
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR s NOT LIKE '%y' GROUP BY j", true},
		{"SELECT j, count(*) AS n FROM p WHERE s = 'a' OR lower(s) LIKE '%y' GROUP BY j", false},
	} {
		for _, tbl := range tables {
			res := runBoth(t, tbl, tc.sql)
			if res.Plan.FilterConjuncts != 1 || res.Plan.WhereLowered != tc.lowered {
				t.Fatalf("[%s] OR root: want one conjunct, lowered=%v, got %+v", tc.sql, tc.lowered, res.Plan)
			}
		}
	}
	t.Run("randomized", func(t *testing.T) {
		differential(t, genProfile{seeds: 40, want: "lowered residual",
			stmt: whereOf(func(rng *rand.Rand) expr.Expr { return randChain(rng, expr.OpOr) })})
	})
}

// TestFilterFallbackVocabulary pins the canonical Plan.FilterFallback
// reason strings.
func TestFilterFallbackVocabulary(t *testing.T) {
	tbl := vectorTestTable(t)
	for _, tc := range []struct{ name, where, want string }{
		{"lowered", "WHERE pop > 10", ""},
		{"shape", "WHERE length(city) > 2", fallbackFilterShape},
		{"shape-all-residual-chain", "WHERE length(city) > 2 AND lower(city) LIKE 'a%'", fallbackFilterShape},
		{"mixed-chain", "WHERE length(city) > 2 AND pop > 10", ""},
		{"no-where", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantPlans(t, tbl, map[string]func(PlanInfo) bool{
				"SELECT city, count(*) AS n FROM v " + tc.where + " GROUP BY city": func(p PlanInfo) bool {
					return p.FilterFallback == tc.want && p.WhereLowered == (tc.want == "")
				},
			})
		})
	}
}

// TestFilterGeometryMismatch: a snapshot whose retention base the
// family's index has already rebased past still lowers, on masks built
// for its own rows, and answers what the reference scan answers.
func TestFilterGeometryMismatch(t *testing.T) {
	geometryMismatch(t, 41, 5, "i >= 0 AND j < 3")
}

// TestLikeGeometryMismatch is TestFilterGeometryMismatch for LIKE on the
// string column, whose appended rows grew the dictionary.
func TestLikeGeometryMismatch(t *testing.T) {
	for i, pat := range likePatterns {
		geometryMismatch(t, 6, len(genVocab), fmt.Sprintf("s %sLIKE '%s'", []string{"", "NOT "}[i%2], pat))
	}
}

// geometryMismatch grows a 300-row table by 100 rows of genRows' (over
// vocab strings) and retains two segments of it, then queries the
// retained version, which rebases the family's index, and the old one:
// each lowers, on masks built for its own rows, and answers right.
func geometryMismatch(t *testing.T, seed int64, vocab int, where string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	old := parityTable(rng, 300, engine.MinSegmentBits)
	grown := must(old.AppendBatch(genRows(rng, 100, vocab, false)))
	cur, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 2 * grown.SegRows()})
	if err != nil || stats.DroppedRows == 0 {
		t.Fatalf("fixture did not retain: %v (%+v)", err, stats)
	}
	sql := "SELECT s, j, count(*) AS n, sum(f) AS sf, count(s) AS c FROM p WHERE " + where + " GROUP BY s, j"
	for _, tbl := range []*engine.Table{cur, old} {
		if res := runBoth(t, tbl, sql); !res.Plan.WhereLowered || res.Plan.ResidualConjuncts != 0 {
			t.Fatalf("[%s] %d-row version: want a lowered walk, got %+v", sql, tbl.NumRows(), res.Plan)
		}
	}
}

// The residual loop must poll the context: a pre-canceled context
// aborts inside buildFilter rather than scanning every eligible row.
func TestResidualFilterCancellation(t *testing.T) {
	tbl := parityTable(rand.New(rand.NewSource(31)), 500, engine.DefaultSegmentBits)
	where := mustParse("SELECT j, count(*) AS n FROM p WHERE i >= -100 AND lower(s) LIKE 'a%' GROUP BY j").Where
	fatalIf(t, "resolve", where.Resolve(tbl.Schema()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := buildFilter(ctx, tbl, where, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context did not abort the residual filter: %v", err)
	}
}

// FuzzResidualFilterParity routes any WHERE the parser accepts and the
// schema resolves through the generator's one check: a grouped statement
// over 64-row segments, run, then advanced by a batch, so the conjunct
// walk runs over every row, then over the suffix alone. The lineage is
// the pass mask; both sides must agree on whether evaluation errs.
func FuzzResidualFilterParity(f *testing.F) {
	for _, s := range []string{
		"i >= 2 AND s LIKE 'a%'",
		"s LIKE '%y' AND f + 0.25 > 1 AND i < 3",
		"j = 1 OR s = 'b' OR f > 2",
		"(i > 0 AND s LIKE '_') OR j = 2",
		"NOT (i > 100) AND s LIKE 'a%'",
		"i > 100 AND s LIKE 'a%' AND f < 1",
		"j >= 0 OR s = 'c' OR i = 1",
		"f = 0 AND i IS NOT NULL AND s LIKE '%'",
		"i / 0 > 1 AND s LIKE 'a%'",
		"i > 3 AND f / i > 0.5",
		"s LIKE 'a%'",          // a lowered LIKE alone
		"j = 1 OR s LIKE '%y'", // OR root, every arm lowered
		"i >= 2 AND lower(s) LIKE 'a%'",
		"lower(s) LIKE '%y' AND s NOT LIKE 'x_' AND f + 0.25 > 1",
		"(i > 0 AND lower(s) LIKE '_') OR j = 2",
		"i IS NULL AND lower(s) LIKE ''",
		"lower(s) NOT LIKE '%'",       // all-residual root
		"j = 1 OR lower(s) LIKE '%y'", // OR root with a non-lowerable arm
	} {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(99))
	steps := []genStep{{rows: genRows(rng, 300, 5, false)}, {rows: genRows(rng, 100, 5, false)}}
	f.Fuzz(func(t *testing.T, text string) {
		where, err := sqlparse.ParseExpr(text)
		if err != nil || where.Resolve(genSchema) != nil {
			return // unknown column or function: unreachable as a WHERE
		}
		stmt := mustParse("SELECT j, count(*) AS n FROM p GROUP BY j")
		stmt.Where = where
		c := &genCase{segBits: engine.MinSegmentBits, stmt: stmt, steps: steps}
		if err := c.run(map[string]bool{}); err != nil {
			t.Fatalf("[%s]: %v", where, err)
		}
	})
}
