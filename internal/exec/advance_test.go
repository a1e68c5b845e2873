package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// These tests pin the incremental append path: Advance over a grown
// copy-on-write table version must produce exactly the result a fresh
// run over the grown table produces — cells, group order, lineage —
// while leaving the old result untouched, and the carried columnar
// caches (argument views, lineage bitsets) must match fresh builds.

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
				// Step 0 advances an unbuilt lineage, which stays unbuilt
				// until groupsEqual builds it over the grown table; later
				// steps extend the lineage the step before built, if it
				// read one.
				if adv.lineBuilt != res.lineBuilt || step == 0 && adv.lineBuilt {
					t.Fatalf("%s: lineage built %v after Advance from %v", label, adv.lineBuilt, res.lineBuilt)
				}
				sawExtend = sawExtend || adv.lineBuilt
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
// born in a batch appear, and that advancing is linear.
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

	// Advance chains are linear: the old result cannot branch.
	if _, err := Advance(res, grown); err == nil {
		t.Fatal("second Advance from the same result should error")
	}
	// But the chain continues from the advanced result.
	grown2, err := grown.AppendBatch(streamBatch(rand.New(rand.NewSource(7)), 20, []string{"a", "b", "zz"}))
	if err != nil {
		t.Fatal(err)
	}
	adv2, err := Advance(adv, grown2)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := runRef(grown2, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "chain step 2", ref2.Table, adv2.Table)
	groupsEqual(t, "chain step 2", ref2, adv2)
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
		s := snap{lineage: append([]int(nil), res.GroupLineage(gi)...)}
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
		l := res.GroupLineage(gi)
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

// TestAdvanceCarriesColumnarCaches checks that argument views and
// lineage bitsets carried across an Advance equal fresh builds on the
// grown result.
func TestAdvanceCarriesColumnarCaches(t *testing.T) {
	tbl, stmt := streamFixture(t, 400)
	res, err := RunOn(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the caches so there is something to carry.
	if _, err := res.AggArgFloats(0); err != nil {
		t.Fatal(err)
	}
	for ri := range res.Groups {
		res.GroupLineageBitsShared(ri)
	}
	grown, err := tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(9)), 150, []string{"a", "b", "c", "new"}))
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advance(res, grown)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Plan.Incremental {
		t.Fatalf("expected incremental advance, got %+v", adv.Plan)
	}
	fresh, err := RunOn(grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	gotAV, err := adv.AggArgFloats(0)
	if err != nil {
		t.Fatal(err)
	}
	wantAV, err := fresh.AggArgFloats(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAV.Vals) != len(wantAV.Vals) {
		t.Fatalf("carried ArgView length %d, want %d", len(gotAV.Vals), len(wantAV.Vals))
	}
	for i := range gotAV.Vals {
		if gotAV.Vals[i] != wantAV.Vals[i] && !(gotAV.Vals[i] != gotAV.Vals[i] && wantAV.Vals[i] != wantAV.Vals[i]) {
			t.Fatalf("carried ArgView.Vals[%d] = %v, want %v", i, gotAV.Vals[i], wantAV.Vals[i])
		}
		if gotAV.Null.Get(i) != wantAV.Null.Get(i) {
			t.Fatalf("carried ArgView.Null(%d) mismatch", i)
		}
	}
	for ri := range adv.Groups {
		got, want := adv.GroupLineageBitsShared(ri), fresh.GroupLineageBitsShared(ri)
		if got.Len() != want.Len() || got.Count() != want.Count() {
			t.Fatalf("group %d lineage bits: len %d/%d count %d/%d", ri, got.Len(), want.Len(), got.Count(), want.Count())
		}
		want.ForEach(func(i int) {
			if !got.Get(i) {
				t.Fatalf("group %d lineage bit %d missing in carried bitset", ri, i)
			}
		})
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
					total += len(res.GroupLineage(gi))
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
