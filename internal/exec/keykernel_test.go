package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/sqlparse"
)

// These tests pin computed numeric group keys — the keys the scan runs as
// typed chunk kernels (expr.FloatKernel) — to the boxed reference scan:
// the same groups in the same order with the same lineage, Group.Key bit
// for bit the reference's value (type included: an int-typed bucket is an
// int, never the kernel's float), over many fold blocks, through blocks
// the kernel declines mid-scan, through Advance, and with the reference's
// first error.

// keyShapes are GROUP BY lists over parityTable's columns with the number
// of keys that must plan as kernels.
var keyShapes = []struct {
	name    string
	groupBy []string
	kernels int
}{
	{"one kernel key", []string{"bucket(epoch(t), 1800)"}, 1},
	{"kernel beside a dictionary key and a per-row string key", []string{"bucket(i, 3)", "s", "lower(s)"}, 1},
	{"two kernels, int and float typed", []string{"i * 2 - j", "floor(f / 2)"}, 2},
}

// keyShapeStmt is a statement over groupBy with a float-fed, a counting
// and a computed argument.
func keyShapeStmt(t *testing.T, from string, groupBy []string, where string) *sqlparse.SelectStmt {
	t.Helper()
	items := make([]string, len(groupBy))
	for k, g := range groupBy {
		items[k] = fmt.Sprintf("%s AS g%d", g, k)
	}
	sql := fmt.Sprintf("SELECT %s, count(*) AS n, avg(f) AS a, sum(f + j) AS c FROM %s", strings.Join(items, ", "), from)
	if where != "" {
		sql += " WHERE " + where
	}
	return mustParse(t, sql+" GROUP BY "+strings.Join(groupBy, ", "))
}

// poisonedTable is parityTable's rows at a forced segment size, with one
// cell of i past 2^53 at row poison (< 0: none): the float chunk has
// rounded it, so every kernel reading i declines that row's block and no
// other.
func poisonedTable(rng *rand.Rand, nrows int, segBits uint, poison int) *engine.Table {
	src := parityTable(rng, nrows)
	rows := make([][]engine.Value, nrows)
	for r := range rows {
		rows[r] = src.Row(r)
	}
	if poison >= 0 {
		rows[poison][0] = engine.NewInt(1<<53 + 1)
	}
	tbl, err := engine.NewTableSeg("p", src.Schema(), segBits)
	if err == nil {
		tbl, err = tbl.AppendBatch(rows)
	}
	if err != nil {
		panic(err)
	}
	return tbl
}

// TestKeyKernelParity runs every shape over tables whose middle block —
// a 64-row segment (one fold block of eleven), then one scan block of a
// big segment — holds the poisoned cell, filtered and not.
func TestKeyKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tables := []struct {
		name string
		tbl  *engine.Table
	}{
		{"64-row segments", poisonedTable(rng, 700, engine.MinSegmentBits, -1)},
		{"64-row segments, middle one poisoned", poisonedTable(rng, 700, engine.MinSegmentBits, 5*64+17)},
		{"one segment, middle block poisoned", poisonedTable(rng, 3*blockRows+100, engine.DefaultSegmentBits, blockRows+500)},
	}
	for _, shape := range keyShapes {
		for _, tc := range tables {
			for _, where := range []string{"", "j >= 1", "f + 0.25 > 0 AND s LIKE '%'"} {
				stmt := keyShapeStmt(t, "p", shape.groupBy, where)
				ref, err := runRef(tc.tbl, stmt)
				if err != nil {
					t.Fatalf("%s: reference: %v", stmt, err)
				}
				label := fmt.Sprintf("%s / %s [%s]", shape.name, tc.name, stmt)
				res, err := Run(t.Context(), tc.tbl, stmt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tablesEqual(t, label, ref.Table, res.Table)
				groupsEqual(t, label, ref, res)
				assertPipeline(t, label, res)
				if res.Plan.KeyKernels != shape.kernels {
					t.Fatalf("%s: KeyKernels = %d, want %d (a declined block must not change it)", label, res.Plan.KeyKernels, shape.kernels)
				}
			}
		}
	}
}

// TestKeyKernelsPlanned pins PlanInfo.KeyKernels: it counts the keys
// planned as kernels — one for the Figure 4 statement, none for a
// string-valued computed key or bare columns.
func TestKeyKernelsPlanned(t *testing.T) {
	readings, _ := datasets.Intel(datasets.IntelConfig{Rows: 2000, Seed: 1})
	res, err := Run(t.Context(), readings, mustParse(t, datasets.IntelWindowSQL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.KeyKernels != 1 {
		t.Fatalf("Figure 4 statement: KeyKernels = %d, want 1 (%+v)", res.Plan.KeyKernels, res.Plan)
	}
	tbl := parityTable(rand.New(rand.NewSource(3)), 300)
	for sql, want := range map[string]int{
		"SELECT lower(s) AS k, count(*) AS n FROM p GROUP BY lower(s)":                                     0,
		"SELECT s, f, count(*) AS n FROM p GROUP BY s, f":                                                  0,
		"SELECT count(*) AS n FROM p WHERE f > 0":                                                          0,
		"SELECT coalesce(i, 0) AS k, count(*) AS n FROM p GROUP BY coalesce(i, 0)":                         0,
		"SELECT -i AS k, sqrt(f) AS r, lower(s) AS l, count(*) AS n FROM p GROUP BY -i, sqrt(f), lower(s)": 2,
	} {
		if res := runBoth(t, tbl, sql); res.Plan.KeyKernels != want {
			t.Errorf("%s: KeyKernels = %d, want %d", sql, res.Plan.KeyKernels, want)
		}
	}
}

// TestKeyKernelAdvance chains Advance over every shape from a poisoned
// tiny-segment table: batches that land on, one under, one over and two
// past the next segment boundary (so the suffix scan starts mid-word,
// mid-segment and on a fresh segment), a retention pass every other step.
// Every advance must equal the reference scan of the table it reached.
func TestKeyKernelAdvance(t *testing.T) {
	for si, shape := range keyShapes {
		rng := rand.New(rand.NewSource(int64(31 + si)))
		cur := poisonedTable(rng, 300, engine.MinSegmentBits, 2*64+5)
		stmt := keyShapeStmt(t, "p", shape.groupBy, "")
		res, err := Run(t.Context(), cur, stmt)
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		for step := 0; step < 8; step++ {
			seg := cur.SegRows()
			toBoundary := seg - cur.NumRows()%seg
			size := []int{toBoundary, max(1, toBoundary-1), toBoundary + 1, toBoundary + seg}[step%4]
			batch := batchRows(rng, size)
			if step == 5 {
				batch[size/2][0] = engine.NewInt(-1<<53 - 1) // a declined block inside a suffix scan
			}
			grown, err := cur.AppendBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if cur = grown; step%2 == 1 {
				if cur, _, err = cur.RetainTail(engine.RetentionPolicy{MaxRows: 3 * seg}); err != nil {
					t.Fatal(err)
				}
			}
			adv, err := AdvanceCtx(t.Context(), res, cur)
			if err != nil {
				t.Fatalf("%s step %d: Advance: %v", shape.name, step, err)
			}
			ref, err := runRef(cur, stmt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s step %d (+%d rows, base %d) plan %+v", shape.name, step, size, cur.Base(), adv.Plan)
			tablesEqual(t, label, ref.Table, adv.Table)
			groupsEqual(t, label, ref, adv)
			if !adv.Plan.Vectorized || adv.Plan.Incremental == (adv.Plan.Fallback != "") || adv.Plan.KeyKernels != shape.kernels {
				t.Fatalf("%s: an advance carries or re-runs with a reason, on the same kernels", label)
			}
			if adv.Plan.Incremental {
				carried++
			}
			res = adv
		}
		if carried < 4 {
			t.Fatalf("%s: only %d of 8 advances carried", shape.name, carried)
		}
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
		tbl, err := engine.NewTableSeg("p", parityTable(rand.New(rand.NewSource(1)), 0).Schema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
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
		if tbl, err = tbl.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
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
		_, refErr := runRef(tbl, mustParse(t, sql))
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v, want one naming %q", tc.name, refErr, tc.want)
		}
		if _, err := Run(t.Context(), tbl, mustParse(t, sql)); err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, reference's is %v", tc.name, err, refErr)
		}
	}
}

// TestOutOfCoreSegmentPinsOnce: an out-of-core segment larger than a
// fold block is one work item, so however many workers scan, each of
// its chunks is pinned once — the workers never wait on one chunk. The
// production geometry — fold blocks inside default segments, out of core
// and through an Advance that resumes a block mid-segment — answers what
// the reference and a fresh run answer, bit for bit, on inexact floats.
func TestOutOfCoreSegmentPinsOnce(t *testing.T) {
	const segBits, sealed = engine.DefaultSegmentBits, 2 // four fold blocks a segment
	src := poisonedTable(rand.New(rand.NewSource(3)), sealed<<segBits+100, segBits, -1)
	twin, loader := enginetest.Faultable(src)
	res, err := Run(t.Context(), twin, mustParse(t, "SELECT j, sum(f) AS v FROM p GROUP BY j"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Shards != sealed*4+1 {
		t.Fatalf("folded %d blocks, want %d", res.Plan.Shards, sealed*4+1)
	}
	if floats, codes, ints, pinned := loader.Counts(); floats != 2*sealed+1 || codes != 0 || ints != 0 || pinned != 0 {
		t.Fatalf("%d float pins (want a pin of j and of f per sealed segment, one more of j at group births), %d code, %d int, %d outstanding", floats, codes, ints, pinned)
	}

	// NaN cells would turn every sum into NaN; the filter drops them and
	// keeps the ±1e16 and multiples of 0.1 that make the sums inexact.
	stmt := mustParse(t, "SELECT j, count(*) AS n, sum(f) AS v, avg(f) AS a, var(f) AS w, "+
		"count(DISTINCT f) AS d, sum(DISTINCT f) AS ds, median(f) AS m, max(f) AS x FROM p WHERE f < 1e300 GROUP BY j")
	for _, tbl := range []*engine.Table{twin, src} {
		ref, err := runRef(src, stmt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(t.Context(), tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("out of core %v", tbl == twin)
		tablesEqual(t, label, ref.Table, got.Table)
		groupsEqual(t, label, ref, got)
	}

	// Rows to 70000 end mid-block in the second segment; the append
	// completes that block at 81920 and opens the next.
	rows := make([][]engine.Value, 90000)
	for r := range rows {
		rows[r] = src.Row(r)
	}
	old, err := engine.NewTableSeg("p", src.Schema(), segBits)
	if err == nil {
		old, err = old.AppendBatch(rows[:70000])
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(t.Context(), old, stmt)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := old.AppendBatch(rows[70000:])
	if err != nil {
		t.Fatal(err)
	}
	adv, err := AdvanceCtx(t.Context(), res, grown)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(t.Context(), grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental || adv.Plan.Shards != 2 {
		t.Fatalf("advance scanned %d blocks (incremental %v), want the resumed one and the next", adv.Plan.Shards, adv.Plan.Incremental)
	}
	tablesEqual(t, "advance mid-segment", fresh.Table, adv.Table)
	groupsEqual(t, "advance mid-segment", fresh, adv)
}

// TestKeyKernelOutOfCore counts what a computed-key statement faults in
// through enginetest's loader. Key and argument share column f, and a
// worker's reader is the only one its blocks use: a segment here is one
// fold block, so one float pin per sealed segment, however many scan
// blocks it spans and whichever worker takes it. Cells are boxed only
// where a group is born — the RowReader's pins are bounded by segments
// holding a FirstRow, not by rows.
func TestKeyKernelOutOfCore(t *testing.T) {
	const segBits, sealed = 13, 3 // eight blocks a segment
	src := poisonedTable(rand.New(rand.NewSource(23)), sealed<<segBits+300, segBits, -1)
	stmt := mustParse(t, "SELECT bucket(f, 2) AS b, sum(f) AS v, count(*) AS n FROM p WHERE j >= 0 GROUP BY bucket(f, 2)")
	ref, err := runRef(src, stmt)
	if err != nil {
		t.Fatal(err)
	}
	birthSegs := map[int]bool{}
	for _, g := range ref.Groups {
		if k := g.FirstRow >> segBits; k < sealed {
			birthSegs[k] = true
		}
	}
	twin, loader := enginetest.Faultable(src)
	res, err := Run(t.Context(), twin, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// The scan's pins are counted before groupsEqual builds the lineage,
	// a pass of its own.
	floats, codes, ints, pinned := loader.Counts()
	if pinned != 0 || codes != 0 || ints != 0 {
		t.Fatalf("%d pins outstanding, %d code and %d exact-int pins for a statement over two numeric columns", pinned, codes, ints)
	}
	// j's clause mask is built once per table family (before any block
	// is scanned) and faults each of its chunks once.
	if floats -= sealed; floats != sealed+len(birthSegs) {
		t.Fatalf("%d float pins of f, want %d by the workers' readers + %d at group births", floats, sealed, len(birthSegs))
	}
	tablesEqual(t, "out of core", ref.Table, res.Table)
	groupsEqual(t, "out of core", ref, res)

	// A load failure mid-block — f's chunk fails once t's is pinned — is
	// a SegmentLoadError with every pin released; AdvanceCtx never writes
	// res, so the retry on the same res carries, bit-identical.
	fail := mustParse(t, "SELECT bucket(epoch(t), 1800) AS w, bucket(f, 2) AS b, count(*) AS n FROM p GROUP BY bucket(epoch(t), 1800), bucket(f, 2)")
	twin, loader = enginetest.New(src)
	twin = loader.Attach(loader.Attach(twin))
	res, err = Run(t.Context(), twin, fail)
	if err != nil {
		t.Fatal(err)
	}
	grown := loader.Attach(twin)
	fCol := src.Schema().ColIndex("f")
	loader.Fail = func(seg, col int) error {
		if seg == 2 && col == fCol {
			return errors.New("injected")
		}
		return nil
	}
	for attempt := 0; attempt < 2; attempt++ {
		for name, run := range map[string]func() (*Result, error){
			"run":     func() (*Result, error) { return Run(t.Context(), grown, fail) },
			"advance": func() (*Result, error) { return AdvanceCtx(context.Background(), res, grown) },
		} {
			out, err := run()
			var sle *engine.SegmentLoadError
			if !errors.As(err, &sle) || sle.Seg != 2 || sle.Col != fCol || out != nil {
				t.Fatalf("%s attempt %d: want the injected load failure of segment 2 column f, got %v, %v", name, attempt, out, err)
			}
			if _, _, _, pinned := loader.Counts(); pinned != 0 {
				t.Fatalf("%s attempt %d: %d chunks still pinned", name, attempt, pinned)
			}
		}
	}
	loader.Fail = nil
	adv, err := AdvanceCtx(t.Context(), res, grown)
	if err != nil || !adv.Plan.Incremental {
		t.Fatalf("retry after the fault cleared: %v (plan %+v)", err, adv.Plan)
	}
	sealedRows := make([]int, grown.NumRows())
	for r := range sealedRows {
		sealedRows[r] = r
	}
	if ref, err = runRef(src.Select(sealedRows), fail); err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "retry", ref.Table, adv.Table)
	groupsEqual(t, "retry", ref, adv)
}

// pollCtx calls at on every cancellation poll and never cancels.
type pollCtx struct {
	context.Context
	at func()
}

func (c pollCtx) Err() error { c.at(); return nil }

// TestBlockPollCadence pins the cancellation cadence of the block loop: a
// scanner polls before any block that would put more than ctxCheckRows rows
// between two polls, whatever the segment size and wherever its range
// starts (an Advance suffix starts mid-word).
func TestBlockPollCadence(t *testing.T) {
	for _, segBits := range []uint{engine.MinSegmentBits, 8, 12, 13, engine.DefaultSegmentBits} {
		const n = 5*ctxCheckRows + 777
		tbl := poisonedTable(rand.New(rand.NewSource(5)), n, segBits, -1)
		stmt := keyShapeStmt(t, "p", keyShapes[0].groupBy, "")
		_, aggItems, protos, err := prepare(tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, lo := range []int{0, 1000, ctxCheckRows + 64} {
			var ss *scanner
			// scanned is the rows the groups counted (no WHERE: every row
			// passes).
			scanned := func() int {
				at := lo
				for _, vg := range ss.groups {
					at += vg.g.Rows
				}
				return at
			}
			last, polls := lo, 0
			ctx := pollCtx{context.Background(), func() {
				if ss == nil {
					return // planning polls too
				}
				at := scanned()
				if polls++; at-last > ctxCheckRows {
					t.Fatalf("segBits %d lo %d: %d rows scanned between polls %d and %d", segBits, lo, at-last, polls-1, polls)
				}
				last = at
			}}
			p, err := planVector(ctx, tbl, stmt, aggItems, protos, lo)
			if err != nil {
				t.Fatal(err)
			}
			ss = newScanner(p)
			_, err = ss.run(lo, n, nil)
			if ss.close(); err != nil || scanned() != n {
				t.Fatalf("segBits %d lo %d: err %v, %d rows pending", segBits, lo, err, n-scanned())
			}
			if want := (n - lo) / ctxCheckRows; polls < want || (segBits >= 12 && polls > want+2) {
				t.Fatalf("segBits %d lo %d: %d polls over %d rows, want about %d", segBits, lo, polls, n-lo, want)
			}
		}
	}
}
