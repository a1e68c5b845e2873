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
	"repro/internal/predicate"
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
	grown := must(tbl.AppendBatch(streamBatch(rand.New(rand.NewSource(8)), 90, []string{"a", "b", "new"})))
	ref := must(runRef(tbl, stmt))
	fresh := must(Run(t.Context(), grown, stmt))
	const readers, rounds = 4, 16
	for round := range rounds {
		label := fmt.Sprintf("round %d", round)
		res := must(Run(t.Context(), tbl, stmt))
		if round%2 == 1 {
			must(res.Provenance(t.Context()))
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
		fatalIf(t, label, compareGroups(ref, res, true))
		fatalIf(t, label+" (advanced)", compareTables(fresh.Table, adv.Table))
		fatalIf(t, label+" (advanced)", compareGroups(fresh, adv, true))
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
	src := parityTable(rng, 4*64, engine.MinSegmentBits)
	tbl, loader := enginetest.New(src)
	for range 4 {
		tbl = loader.Attach(tbl)
	}
	stmt := mustParse("SELECT s, sum(f) AS v, count(*) AS n, count(DISTINCT s) AS d FROM p WHERE j < 3 GROUP BY s")
	res := must(Run(t.Context(), tbl, stmt))
	v0 := mustProv(res)
	must(v0.ArgView(0))
	for ri := range res.Groups {
		v0.Bits(ri)
	}
	adv := res
	for step, k := range []int{30, 50, 70} {
		tbl = must(tbl.AppendBatch(genRows(rng, k, 5, false)))
		adv = must(AdvanceCtx(t.Context(), adv, tbl))
		if !adv.Plan.Incremental || adv.prov.Load() != nil || adv.anc.Load() != v0 {
			t.Fatalf("step %d: advance built a value or lost the ancestor: %+v", step, adv.Plan)
		}
	}
	loader.Fail = func(seg, col int) error {
		return fmt.Errorf("the first read pinned segment %d of the ancestor's rows", seg)
	}
	v, err := adv.Provenance(t.Context())
	loader.Fail = nil
	fatalIf(t, "setup", err)
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
	fresh, ref := must(Run(t.Context(), tbl, stmt)), must(runRef(tbl, stmt))
	fatalIf(t, "chain", compareGroups(ref, adv, true))
	fatalIf(t, "chain", compareProv(fresh, adv))
}

// TestScanAllocatesPerGroup: a grouped scan records no lineage, so it
// allocates per group and per block, not per row. Each scanMix statement
// over 400k Intel rows allocates under 1 MB a run (recording every row
// id, the grouped one allocated 7.9 MB). A runtime.MemStats delta, not a
// clock.
func TestScanAllocatesPerGroup(t *testing.T) {
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: 400_000, Seed: 1})
	for _, c := range scanMix {
		stmt := mustParse(c.sql)
		must(Run(t.Context(), tbl, stmt)) // warm the shared clause masks
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			must(Run(t.Context(), tbl, stmt))
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
	grow := func(tbl *engine.Table, rows [][]engine.Value) *engine.Table { return must(tbl.AppendBatch(rows)) }
	advance := func(res *Result, tbl *engine.Table) *Result { return must(AdvanceCtx(t.Context(), res, tbl)) }
	build := func(res *Result) *Result {
		for ord := range res.aggItems {
			if _, err := mustProv(res).ArgView(ord); err != nil {
				t.Error(err)
			}
		}
		return res
	}
	check := func(label string, res *Result) {
		fatalIf(t, label, compareProv(must(Run(t.Context(), res.Source, res.Stmt)), res))
	}

	tbl := parityTable(rng, 5*64+17, engine.MinSegmentBits)
	stmt := mustParse("SELECT s, sum(f) AS v, count(*) AS n, count(DISTINCT s) AS d, avg(i * 2) AS e FROM p WHERE j < 3 GROUP BY s")
	res := must(Run(t.Context(), tbl, stmt))
	tbl = grow(tbl, genRows(rng, 40, 5, false))
	parent := build(advance(build(res), tbl)) // a derived view: spare capacity
	t2 := grow(tbl, genRows(rng, 9, 5, false))
	sibs := []*Result{advance(parent, t2), advance(parent, grow(t2, genRows(rng, 13, 5, false)))}
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
	tbl = grow(engine.MustNewTable("c", engine.NewSchema("w", engine.TInt, "f", engine.TFloat)), chainBatch(0, rows))
	adv := must(Run(t.Context(), tbl, mustParse("SELECT w, sum(f) AS v FROM c GROUP BY w")))
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

// TestSharedIndexBounded: the family-shared clause-mask index is bounded
// however many distinct literals the statements bring. 1,000 distinct
// `WHERE temperature > x` statements over 400k Intel rows, a hot literal
// queried between each, grow the heap by at most the index bound's worth
// of masks (128 of rows/8 bytes) plus slack — unbounded, they held
// 1,000. The hot literal's mask survives every sweep, and the first cold
// literal, evicted, rebuilds bit for bit.
func TestSharedIndexBounded(t *testing.T) {
	const rows, literals, bound = 400_000, 1000, 128 // bound: predicate's maxMasks
	tbl, _ := datasets.Intel(datasets.IntelConfig{Rows: rows, Seed: 1})
	ix := predicate.Shared(tbl)
	literal := func(k int) float64 { return 10.25 + float64(k)/64 }
	clause := func(x float64) predicate.Clause {
		return predicate.Clause{Col: "temperature", Op: predicate.OpGt, Val: engine.NewFloat(x)}
	}
	run := func(x float64) {
		must(Run(t.Context(), tbl, mustParse(fmt.Sprintf("SELECT count(*) AS n FROM readings WHERE temperature > %v", x))))
	}
	const hotX = 100.5
	run(hotX)
	hot := ix.ClauseBits(clause(hotX))
	run(literal(0))
	first := ix.ClauseBits(clause(literal(0)))
	firstBits := first.Clone()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 1; k < literals; k++ {
		run(literal(k))
		run(hotX)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if limit := int64(bound*rows/8 + 4<<20); int64(after.HeapAlloc)-int64(before.HeapAlloc) > limit {
		t.Fatalf("heap grew %d bytes over %d literals, want at most %d", int64(after.HeapAlloc)-int64(before.HeapAlloc), literals, limit)
	}
	if ix.ClauseBits(clause(hotX)) != hot {
		t.Fatal("the hot literal's mask was evicted")
	}
	again := ix.ClauseBits(clause(literal(0)))
	if again == first {
		t.Fatal("the first literal's mask survived 999 newer literals")
	}
	if again.Len() != firstBits.Len() || !slices.Equal(again.Words(), firstBits.Words()) {
		t.Fatal("the evicted literal rebuilt different bits")
	}
}
