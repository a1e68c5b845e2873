package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// These tests pin the incremental append path: Advance over a grown
// copy-on-write table version must produce exactly the result a fresh
// run over the grown table produces — cells, group order, lineage —
// while leaving the old result untouched, and the provenance a first
// read extends from an ancestor (argument views, lineage bitsets) must
// match fresh builds.

// batchRows materializes k random rows (parityTable's distribution) as
// an AppendBatch payload.
func batchRows(rng *rand.Rand, k int) [][]engine.Value {
	src := parityTable(rng, k)
	out := make([][]engine.Value, k)
	for i := 0; i < k; i++ {
		out[i] = src.Row(i)
	}
	return out
}

// TestAdvanceParity is the incremental counterpart of the vector/scalar
// parity test: for random statements and random append batches, the
// advanced result must equal a from-scratch RunReference and a fresh run
// on the grown table, bit for bit, across a chain of appends. The table's
// 64-row segments are as many fold blocks, so the chains cross block
// boundaries and resume partial blocks.
func TestAdvanceParity(t *testing.T) {
	sawDistinct, sawCross, sawExtend := false, false, false
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		tbl := tinySegTable(rng, rng.Intn(200))
		for iter := 0; iter < 25; iter++ {
			stmt, hasDistinct := randStmt(rng)
			sql := stmt.String()
			// Appends are linear per family: each iteration chains from
			// the newest version the previous iteration produced.
			cur := tbl
			res, err := RunOn(cur, stmt)
			if err != nil {
				continue // reference scan rejects it identically; covered by parity test
			}
			assertPipeline(t, sql, res)
			for step := 0; step < 3; step++ {
				grown, err := cur.AppendBatch(batchRows(rng, 1+rng.Intn(40)))
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: AppendBatch: %v", seed, iter, step, err)
				}
				adv, err := Advance(res, grown)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: Advance: %v\nsql: %s", seed, iter, step, err, sql)
				}
				ref, err := runRef(grown, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: reference run: %v\nsql: %s", seed, iter, step, err, sql)
				}
				fresh, err := RunOn(grown, stmt)
				if err != nil {
					t.Fatalf("seed %d iter %d step %d: fresh run: %v\nsql: %s", seed, iter, step, err, sql)
				}
				label := fmt.Sprintf("seed %d iter %d step %d [%s]", seed, iter, step, sql)
				// Step 0 advances an unbuilt provenance: the advanced result
				// records no ancestor and groupsEqual builds its value over
				// the grown table. Later steps record the value the step
				// before built, which the first read extends.
				if anc := adv.anc.Load(); anc != res.prov.Load() || step == 0 && anc != nil {
					t.Fatalf("%s: Advance recorded ancestor %p, the parent's value is %p", label, anc, res.prov.Load())
				}
				sawExtend = sawExtend || adv.anc.Load() != nil
				tablesEqual(t, label, ref.Table, adv.Table)
				groupsEqual(t, label, ref, adv)
				tablesEqual(t, label+" (fresh)", fresh.Table, adv.Table)
				groupsEqual(t, label+" (fresh)", fresh, adv)
				sawCross = sawCross || cur.NumRows()%64 != 0 && grown.NumRows()/64 > cur.NumRows()/64
				// Without retention nothing re-runs: every state, DISTINCT
				// sets included, is copied and extended by the suffix.
				if !adv.Plan.Vectorized || !adv.Plan.Incremental || adv.Plan.Fallback != "" {
					t.Fatalf("%s: hasDistinct=%v but plan %+v", label, hasDistinct, adv.Plan)
				}
				sawDistinct = sawDistinct || hasDistinct
				cur, res = grown, adv
			}
			tbl = cur
		}
	}
	if !sawDistinct || !sawCross || !sawExtend {
		t.Fatalf("harness coverage: sawDistinct=%v sawCross=%v sawExtend=%v", sawDistinct, sawCross, sawExtend)
	}
}

// TestAdvanceFromEmptyIsRun: Run is Advance from the empty result. A
// result over an empty version of the table, advanced to the full one,
// equals a fresh run over it bit for bit — float states included, over
// inexact floats and several fold blocks.
func TestAdvanceFromEmptyIsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	full, compared := tinySegTable(rng, 500), 0
	rows := make([][]engine.Value, full.NumRows())
	for r := range rows {
		rows[r] = full.Row(r)
	}
	for iter := 0; iter < 40; iter++ {
		stmt, _ := randStmt(rng)
		empty, err := engine.NewTableSeg("p", full.Schema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOn(empty, stmt)
		if err != nil {
			continue
		}
		grown, err := empty.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		adv, advErr := Advance(res, grown)
		fresh, err := RunOn(grown, stmt)
		if (err != nil) != (advErr != nil) {
			t.Fatalf("iter %d: error disagreement\nrun: %v\nadvance: %v", iter, err, advErr)
		}
		if err != nil {
			continue
		}
		label := fmt.Sprintf("iter %d [%s]", iter, stmt)
		tablesEqual(t, label, fresh.Table, adv.Table)
		groupsEqual(t, label, fresh, adv)
		for gi, g := range adv.allGroups {
			for ai, st := range g.Aggs {
				if a, b := st.Result(), fresh.allGroups[gi].Aggs[ai].Result(); !sameCell(a, b) {
					t.Fatalf("%s: group %d aggregate %d: %#v advanced, %#v fresh", label, gi, ai, a, b)
				}
			}
		}
		if adv.Plan.Shards != fresh.Plan.Shards || fresh.Plan.Shards < 2 {
			t.Fatalf("%s: fold blocks %d advanced, %d fresh", label, adv.Plan.Shards, fresh.Plan.Shards)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("harness coverage: %d statements compared", compared)
	}
}

// streamFixture builds a small grouped statement for the tests of
// Advance's mechanics.
func streamFixture(t *testing.T, rows int) (*engine.Table, *sqlparse.SelectStmt) {
	t.Helper()
	tbl, err := engine.NewTable("p", engine.NewSchema("s", engine.TString, "f", engine.TFloat))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	strs := []string{"a", "b", "c"}
	vals := make([][]engine.Value, rows)
	for i := range vals {
		vals[i] = []engine.Value{engine.NewString(strs[rng.Intn(3)]), engine.NewFloat(float64(rng.Intn(40)) * 0.25)}
	}
	if tbl, err = tbl.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse("SELECT s, sum(f) AS total, count(*) AS n FROM p WHERE f >= 1 GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	return tbl, stmt
}

func streamBatch(rng *rand.Rand, k int, strs []string) [][]engine.Value {
	out := make([][]engine.Value, k)
	for i := range out {
		out[i] = []engine.Value{engine.NewString(strs[rng.Intn(len(strs))]), engine.NewFloat(float64(rng.Intn(40)) * 0.25)}
	}
	return out
}

// TestAdvanceIncrementalPlan asserts the incremental path actually runs
// (Plan.Incremental) for a vectorizable statement, that new group keys
// born in a batch appear, and that one result advances to two grown
// versions, each branch equal to a fresh run.
func TestAdvanceIncrementalPlan(t *testing.T) {
	tbl, stmt := streamFixture(t, 500)
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Vectorized {
		t.Fatalf("fixture statement not vectorized: %+v", res.Plan)
	}
	// The batch introduces a brand-new group key "zz".
	batch := [][]engine.Value{
		{engine.NewString("zz"), engine.NewFloat(5)},
		{engine.NewString("a"), engine.NewFloat(2)},
		{engine.NewString("a"), engine.NewFloat(0.25)}, // filtered out by WHERE
	}
	grown, err := tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advance(res, grown)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental {
		t.Fatalf("Advance did not take the incremental path: %+v", adv.Plan)
	}
	ref, err := runRef(grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "incremental", ref.Table, adv.Table)
	groupsEqual(t, "incremental", ref, adv)

	// A result may be advanced twice: a second Advance from res, to a
	// further grown version, is a branch of its own. Each branch equals a
	// reference and a fresh run over its version, provenance included.
	grown2, err := grown.AppendBatch(streamBatch(rand.New(rand.NewSource(7)), 20, []string{"a", "b", "zz"}))
	if err != nil {
		t.Fatal(err)
	}
	adv2, err := Advance(res, grown2)
	if err != nil {
		t.Fatalf("second Advance from one result: %v", err)
	}
	for label, a := range map[string]*Result{"first branch": adv, "second branch": adv2} {
		ref, err := runRef(a.Source, stmt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunOn(a.Source, stmt)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, label, ref.Table, a.Table)
		groupsEqual(t, label, ref, a)
		provEqual(t, label, ref, a)
		provEqual(t, label+" (fresh)", fresh, a)
	}
	// And each chain continues from its advanced result.
	grown3, err := grown2.AppendBatch(streamBatch(rand.New(rand.NewSource(8)), 20, []string{"a", "c", "zy"}))
	if err != nil {
		t.Fatal(err)
	}
	adv3, err := Advance(adv, grown3)
	if err != nil {
		t.Fatal(err)
	}
	ref3, err := runRef(grown3, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "chain step 2", ref3.Table, adv3.Table)
	groupsEqual(t, "chain step 2", ref3, adv3)
	provEqual(t, "chain step 2", ref3, adv3)
}

// provEqual compares two results' provenance values exactly: every
// output row's lineage and lineage bitset, and every aggregate's
// argument view, bit for bit.
func provEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wv, gv := mustProv(want), mustProv(got)
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("%s: %d vs %d groups", label, len(want.Groups), len(got.Groups))
	}
	for ri := range want.Groups {
		w, g := wv.Rows(ri), gv.Rows(ri)
		if !slices.Equal(w, g) {
			t.Fatalf("%s: group %d lineage %v, want %v", label, ri, g, w)
		}
		wb, gb := wv.Bits(ri), gv.Bits(ri)
		if wb.Len() != gb.Len() || !slices.Equal(wb.Words(), gb.Words()) || !slices.Equal(gb.Rows(), w) {
			t.Fatalf("%s: group %d lineage bits %v (len %d), want %v (len %d)", label, ri, gb.Rows(), gb.Len(), w, wb.Len())
		}
	}
	for ord := range want.aggItems {
		wa, werr := wv.ArgView(ord)
		ga, gerr := gv.ArgView(ord)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: aggregate %d views: %v / %v", label, ord, werr, gerr)
		}
		if len(wa.Vals) != len(ga.Vals) || !slices.Equal(wa.Null.Words(), ga.Null.Words()) {
			t.Fatalf("%s: aggregate %d view covers %d rows (%d NULL), want %d (%d NULL)", label, ord, len(ga.Vals), ga.Null.Count(), len(wa.Vals), wa.Null.Count())
		}
		for r := range wa.Vals {
			if math.Float64bits(wa.Vals[r]) != math.Float64bits(ga.Vals[r]) && !(math.IsNaN(wa.Vals[r]) && math.IsNaN(ga.Vals[r])) {
				t.Fatalf("%s: aggregate %d row %d: %v, want %v", label, ord, r, ga.Vals[r], wa.Vals[r])
			}
		}
	}
}

// TestAdvanceLeavesOldResultIntact pins copy-on-write semantics: after
// an Advance, the previous result still reports the pre-append state.
func TestAdvanceLeavesOldResultIntact(t *testing.T) {
	tbl, stmt := streamFixture(t, 300)
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		cells   []string
		lineage []int
	}
	var before []snap
	for gi := range res.Groups {
		s := snap{lineage: append([]int(nil), groupLineage(res, gi)...)}
		for c := 0; c < res.Table.NumCols(); c++ {
			s.cells = append(s.cells, res.Table.Value(gi, c).Key())
		}
		before = append(before, s)
	}
	grown, err := tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(3)), 100, []string{"a", "b", "c", "d"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advance(res, grown); err != nil {
		t.Fatal(err)
	}
	for gi := range res.Groups {
		l := groupLineage(res, gi)
		if len(l) != len(before[gi].lineage) {
			t.Fatalf("group %d lineage grew in the old result: %d vs %d", gi, len(l), len(before[gi].lineage))
		}
		for k := range l {
			if l[k] != before[gi].lineage[k] {
				t.Fatalf("group %d lineage[%d] changed", gi, k)
			}
		}
		for c := 0; c < res.Table.NumCols(); c++ {
			if res.Table.Value(gi, c).Key() != before[gi].cells[c] {
				t.Fatalf("old result cell (%d,%d) changed after Advance", gi, c)
			}
		}
	}
	if res.Source.NumRows() != 300 {
		t.Fatalf("old result's source grew: %d rows", res.Source.NumRows())
	}
}

// TestAdvanceCarriesColumnarCaches checks that an advanced result's
// first read extends the argument views and lineage bitsets its parent's
// value held, and that they equal a fresh run's.
func TestAdvanceCarriesColumnarCaches(t *testing.T) {
	tbl, stmt := streamFixture(t, 400)
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the value so there is something to extend.
	v := mustProv(res)
	if _, err := v.ArgView(0); err != nil {
		t.Fatal(err)
	}
	for ri := range res.Groups {
		v.Bits(ri)
	}
	grown, err := tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(9)), 150, []string{"a", "b", "c", "new"}))
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advance(res, grown)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental || adv.anc.Load() != v {
		t.Fatalf("expected an incremental advance recording the parent's value, got %+v", adv.Plan)
	}
	av := mustProv(adv)
	if av.views[0] == nil || av.views[1] != nil {
		t.Fatal("the first read did not extend exactly the views the parent's value held")
	}
	for ri, b := range v.bits {
		if (b != nil) != (av.bits[ri] != nil) {
			t.Fatalf("group %d: parent bitset %v, extended %v", ri, b != nil, av.bits[ri] != nil)
		}
	}
	fresh, err := RunOn(grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	provEqual(t, "extended", fresh, adv)
	if adv.anc.Load() != nil {
		t.Fatal("a built value still pins its ancestor")
	}
}

// TestAppendDuringQueryRace drives the safe concurrent ingest/serve
// path under the race detector: one goroutine streams batches through
// DB.Append (copy-on-write republish) while others repeatedly fetch the
// current version and run the query, and another walks an Advance
// chain. Every query must see a consistent snapshot (row count a
// multiple of batch boundaries and sum matching its own version).
func TestAppendDuringQueryRace(t *testing.T) {
	tbl, stmt := streamFixture(t, 200)
	// Statements are per-query objects (Resolve writes column indexes
	// into the AST), so every goroutine parses its own copy.
	sql := stmt.String()
	parse := func() *sqlparse.SelectStmt {
		s, err := sqlparse.Parse(sql)
		if err != nil {
			panic(err)
		}
		return s
	}
	db := engine.NewDB()
	db.Register(tbl)

	const batches = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // ingester
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(17))
		for b := 0; b < batches; b++ {
			if _, err := db.Append("p", streamBatch(rng, 25, []string{"a", "b", "c", "x"})); err != nil {
				t.Errorf("append %d: %v", b, err)
				return
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() { // query servers
			defer wg.Done()
			stmt := parse()
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, err := db.Table("p")
				if err != nil {
					t.Error(err)
					return
				}
				n := src.NumRows()
				if (n-200)%25 != 0 {
					t.Errorf("observed half-appended batch: %d rows", n)
					return
				}
				res, err := RunOn(src, stmt)
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for gi := range res.Groups {
					total += len(groupLineage(res, gi))
				}
				if total > n {
					t.Errorf("lineage beyond snapshot: %d > %d", total, n)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // advance chain follower
		defer wg.Done()
		stmt := parse()
		src, _ := db.Table("p")
		res, err := RunOn(src, stmt)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := db.Table("p")
			if err != nil {
				t.Error(err)
				return
			}
			if cur.NumRows() == res.Source.NumRows() {
				continue
			}
			res, err = Advance(res, cur)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}
