package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
)

// TestLineageFirstReadRace races a result's first provenance readers —
// lineage bitsets, Lineage and argument views on several goroutines —
// against an Advance of the same result, over a table of many segments
// (make test-race runs it under the race detector). Every reader sees
// the reference lineage, and the advanced result equals a fresh run,
// whether the Advance found the value built (odd rounds build it first,
// and the Advance records it as the ancestor) or raced its first read.
func TestLineageFirstReadRace(t *testing.T) {
	base, stmt := streamFixture(t, 700)
	tbl := segCopy(base, engine.MinSegmentBits)
	grown, err := tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(8)), 90, []string{"a", "b", "new"}))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runRef(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(t.Context(), grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	const readers, rounds = 4, 16
	for round := range rounds {
		label := fmt.Sprintf("round %d", round)
		res, err := Run(t.Context(), tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if _, err := res.Provenance(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][][]int, readers) // by reader, by output row
		var adv *Result
		var advErr error
		var wg sync.WaitGroup
		for w := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = make([][]int, len(res.Groups))
				for i := range res.Groups {
					switch ri := (i + w) % len(res.Groups); (ri + w) % 3 {
					case 0:
						got[w][ri] = mustProv(res).Bits(ri).Rows()
					case 1:
						got[w][ri] = res.Lineage([]int{ri})
					default:
						if _, err := mustProv(res).ArgView(0); err != nil {
							t.Error(err)
						}
						got[w][ri] = groupLineage(res, ri)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			adv, advErr = AdvanceCtx(t.Context(), res, grown)
		}()
		wg.Wait()
		if advErr != nil || !adv.Plan.Incremental {
			t.Fatalf("%s: Advance: %v", label, advErr)
		}
		if round%2 == 1 && adv.anc.Load() != res.prov.Load() {
			t.Fatalf("%s: Advance from a built value did not record it", label)
		}
		for w := range got {
			for ri, l := range got[w] {
				if want := groupLineage(ref, ri); !slices.Equal(l, want) {
					t.Fatalf("%s: reader %d group %d lineage %v, want %v", label, w, ri, l, want)
				}
			}
		}
		groupsEqual(t, label, ref, res)
		tablesEqual(t, label+" (advanced)", fresh.Table, adv.Table)
		groupsEqual(t, label+" (advanced)", fresh, adv)
	}
}

// TestLineageUnreadChain: a result whose value is built at step 0,
// advanced three times unread, builds its value on first read from that
// ancestor's with one lineage pass over the appended rows. The old rows
// live in faultable segments whose every pin fails during the read, so
// the read scans only the suffix; the value equals a fresh run's, bit
// for bit, and pins no ancestor once built.
func TestLineageUnreadChain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := tinySegTable(rng, 4*64)
	tbl, loader := enginetest.New(src)
	for range 4 {
		tbl = loader.Attach(tbl)
	}
	stmt := mustParse(t, "SELECT s, sum(f) AS v, count(*) AS n, count(DISTINCT s) AS d FROM p WHERE j < 3 GROUP BY s")
	res, err := Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	v0 := mustProv(res)
	if _, err := v0.ArgView(0); err != nil {
		t.Fatal(err)
	}
	for ri := range res.Groups {
		v0.Bits(ri)
	}
	adv := res
	for step, k := range []int{30, 50, 70} {
		if tbl, err = tbl.AppendBatch(batchRows(rng, k)); err != nil {
			t.Fatal(err)
		}
		if adv, err = AdvanceCtx(t.Context(), adv, tbl); err != nil {
			t.Fatal(err)
		}
		if !adv.Plan.Incremental || adv.prov.Load() != nil || adv.anc.Load() != v0 {
			t.Fatalf("step %d: advance built a value or lost the ancestor: %+v", step, adv.Plan)
		}
	}
	loader.Fail = func(seg, col int) error {
		return fmt.Errorf("the first read pinned segment %d of the ancestor's rows", seg)
	}
	v, err := adv.Provenance(t.Context())
	loader.Fail = nil
	if err != nil {
		t.Fatal(err)
	}
	if adv.anc.Load() != nil {
		t.Fatal("a built value still pins its ancestor")
	}
	for ri, g := range adv.Groups {
		if b := v.bits[g.id]; (b != nil) != (g.FirstRow < res.Source.NumRows()) {
			t.Fatalf("group %d (first row %d): extended bitset %v", ri, g.FirstRow, b != nil)
		}
	}
	if v.views[0] == nil || v.views[1] != nil {
		t.Fatal("the read did not extend exactly the views the ancestor held")
	}
	fresh, err := Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runRef(tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	groupsEqual(t, "chain", ref, adv)
	provEqual(t, "chain", fresh, adv)
}

// TestScanAllocatesPerGroup: a grouped scan records no lineage, so it
// allocates per group and per block, not per row. Each scanMix statement
// over 400k Intel rows allocates under 1 MB a run (recording every row
// id, the grouped one allocated 7.9 MB). A runtime.MemStats delta, not a
// clock.
func TestScanAllocatesPerGroup(t *testing.T) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 400_000, Seed: 1})
	for _, c := range scanMix {
		stmt := mustParse(t, c.sql)
		if _, err := Run(t.Context(), tbl, stmt); err != nil { // warm the shared clause masks
			t.Fatal(err)
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Run(t.Context(), tbl, stmt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
			t.Fatalf("%s: %d bytes allocated a run, want under 1 MiB", c.name, per)
		}
	}
}

// TestLineageDerivedViews pins what a derived first read does with its
// ancestor's argument views. Two sibling advances of one built parent,
// first-read concurrently (make test-race), each equal a fresh run bit
// for bit, and so does the parent: one sibling extended each of the
// parent's views in the spare capacity past its length, the other
// copied it. And along a chain of 20 one-batch advances of a 100k-row
// table, each read right after its advance, the derived first reads
// together allocate less than one view of the table (8 bytes a row):
// each pays for its appended rows, the NULL words and the groups, not
// for the table's floats. The chain starts past the one extension that
// outgrows a from-scratch view's exact capacity; from there append's
// growth leaves room for every batch.
func TestLineageDerivedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	grow := func(tbl *engine.Table, rows [][]engine.Value) *engine.Table {
		grown, err := tbl.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		return grown
	}
	advance := func(res *Result, tbl *engine.Table) *Result {
		adv, err := AdvanceCtx(t.Context(), res, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return adv
	}
	build := func(res *Result) *Result {
		for ord := range res.aggItems {
			if _, err := mustProv(res).ArgView(ord); err != nil {
				t.Error(err)
			}
		}
		return res
	}
	check := func(label string, res *Result) {
		fresh, err := Run(t.Context(), res.Source, res.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		provEqual(t, label, fresh, res)
	}

	tbl := tinySegTable(rng, 5*64+17)
	stmt := mustParse(t, "SELECT s, sum(f) AS v, count(*) AS n, count(DISTINCT s) AS d, avg(i * 2) AS e FROM p WHERE j < 3 GROUP BY s")
	res, err := Run(t.Context(), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tbl = grow(tbl, batchRows(rng, 40))
	parent := build(advance(build(res), tbl)) // a derived view: spare capacity
	t2 := grow(tbl, batchRows(rng, 9))
	sibs := []*Result{advance(parent, t2), advance(parent, grow(t2, batchRows(rng, 13)))}
	var wg sync.WaitGroup
	for _, sib := range sibs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(sib)
		}()
	}
	wg.Wait()
	inPlace := 0
	for i, sib := range sibs {
		check(fmt.Sprintf("sibling %d", i), sib)
		for ord, pv := range mustProv(parent).views {
			if sv := mustProv(sib).views[ord].Vals; &pv.Vals[:1][0] == &sv[:1][0] {
				inPlace++
			}
		}
	}
	if inPlace != len(stmt.Items)-1 {
		t.Fatalf("%d views extended in place, want each of the parent's once", inPlace)
	}
	check("parent", parent)

	// A window per 10,000 base rows; each appended batch opens a window.
	const rows, batch = 100_000, 500
	chainBatch := func(lo, n int) [][]engine.Value {
		out := make([][]engine.Value, n)
		for i := range out {
			f := engine.NewFloat(float64((lo + i) % 97))
			if (lo+i)%13 == 0 {
				f = engine.Null
			}
			w := min(lo+i, rows-1) / 10_000
			if lo >= rows {
				w = lo
			}
			out[i] = []engine.Value{engine.NewInt(int64(w)), f}
		}
		return out
	}
	if tbl, err = engine.NewTable("c", engine.NewSchema("w", engine.TInt, "f", engine.TFloat)); err != nil {
		t.Fatal(err)
	}
	tbl = grow(tbl, chainBatch(0, rows))
	adv, err := Run(t.Context(), tbl, mustParse(t, "SELECT w, sum(f) AS v FROM c GROUP BY w"))
	if err != nil {
		t.Fatal(err)
	}
	build(adv)
	var alloc uint64
	for step := range 21 {
		tbl = grow(tbl, chainBatch(tbl.NumRows(), batch))
		adv = advance(adv, tbl)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build(adv)
		runtime.ReadMemStats(&after)
		if step > 0 { // step 0 outgrows the from-scratch view's capacity
			alloc += after.TotalAlloc - before.TotalAlloc
		}
	}
	if view := uint64(8 * rows); alloc >= view {
		t.Fatalf("20 derived first reads allocated %d bytes, want under one view of the table (%d)", alloc, view)
	}
	check("chain", adv)
}
