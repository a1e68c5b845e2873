package exec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// Advance's mechanics beside the generator's chains: bad input is refused,
// a first read extends exactly the views its ancestor held, and ingest
// races queries and advances safely.

// streamFixture builds a small grouped statement for the tests of
// Advance's mechanics.
func streamFixture(t *testing.T, rows int) (*engine.Table, *sqlparse.SelectStmt) {
	tbl := engine.MustNewTable("p", engine.NewSchema("s", engine.TString, "f", engine.TFloat))
	tbl = must(tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(42)), rows, []string{"a", "b", "c"})))
	return tbl, mustParse("SELECT s, sum(f) AS total, count(*) AS n FROM p WHERE f >= 1 GROUP BY s")
}

func streamBatch(rng *rand.Rand, k int, strs []string) [][]engine.Value {
	out := make([][]engine.Value, k)
	for i := range out {
		out[i] = []engine.Value{engine.NewString(strs[rng.Intn(len(strs))]), engine.NewFloat(float64(rng.Intn(40)) * 0.25)}
	}
	return out
}

// TestAdvanceRejectsBadInput drives AdvanceCtx's input checks: a nil
// result, a table of another family and an older, shorter version of the
// result's own family are each an error, and the result handed in still
// advances afterwards to what a fresh run over the grown table returns.
func TestAdvanceRejectsBadInput(t *testing.T) {
	older, stmt := streamFixture(t, 200)
	tbl := must(older.AppendBatch(streamBatch(rand.New(rand.NewSource(5)), 50, []string{"a", "b"})))
	res := must(Run(t.Context(), tbl, stmt))
	other, _ := streamFixture(t, 300)
	grown := must(tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(6)), 80, []string{"a", "b", "c", "d"})))
	fresh := must(Run(t.Context(), grown, stmt))
	for _, c := range []struct {
		name  string
		res   *Result
		grown *engine.Table
	}{
		{"nil result", nil, grown},
		{"other family", res, other},
		{"older version", res, older},
	} {
		if out, err := AdvanceCtx(t.Context(), c.res, c.grown); err == nil || out != nil {
			t.Fatalf("%s: want an error and no result, got %v, %v", c.name, out, err)
		}
		adv, err := AdvanceCtx(t.Context(), res, grown)
		if err != nil {
			t.Fatalf("%s: advance after the rejected one: %v", c.name, err)
		}
		if !adv.Plan.Incremental {
			t.Fatalf("%s: advance after the rejected one re-ran: %+v", c.name, adv.Plan)
		}
		fatalIf(t, c.name, compareTables(fresh.Table, adv.Table))
		fatalIf(t, c.name, compareGroups(fresh, adv, true))
	}
}

// TestAdvanceCarriesColumnarCaches checks that an advanced result's
// first read extends the argument views and lineage bitsets its parent's
// value held, and that they equal a fresh run's.
func TestAdvanceCarriesColumnarCaches(t *testing.T) {
	tbl, stmt := streamFixture(t, 400)
	res := must(Run(t.Context(), tbl, stmt))
	// Touch the value so there is something to extend.
	v := mustProv(res)
	_ = must(v.ArgView(0))
	for ri := range res.Groups {
		v.Bits(ri)
	}
	grown := must(tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(9)), 150, []string{"a", "b", "c", "new"})))
	adv := must(AdvanceCtx(t.Context(), res, grown))
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
	fresh := must(Run(t.Context(), grown, stmt))
	fatalIf(t, "extended", compareProv(fresh, adv))
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
	parse := func() *sqlparse.SelectStmt { return must(sqlparse.Parse(sql)) }
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
				res, err := Run(t.Context(), src, stmt)
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
		res, err := Run(t.Context(), src, stmt)
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
			res, err = AdvanceCtx(t.Context(), res, cur)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}
