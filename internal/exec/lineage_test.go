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
)

// TestLineageFirstReadRace races a result's first lineage readers —
// GroupLineageBitsShared, Lineage and AggArgFloats on several goroutines
// — against an Advance of the same result, over a table of many segments
// (make test-race runs it under the race detector). Every reader sees
// the reference lineage, and the advanced result equals a fresh run,
// whether the Advance found the lineage built (odd rounds build it
// first) or raced its first read.
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
	fresh, err := RunOn(grown, stmt)
	if err != nil {
		t.Fatal(err)
	}
	const readers, rounds = 4, 16
	for round := range rounds {
		label := fmt.Sprintf("round %d", round)
		res, err := RunOn(tbl, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if err := res.BuildLineage(t.Context()); err != nil {
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
						got[w][ri] = res.GroupLineageBitsShared(ri).Rows()
					case 1:
						got[w][ri] = res.Lineage([]int{ri})
					default:
						if _, err := res.AggArgFloats(0); err != nil {
							t.Error(err)
						}
						got[w][ri] = res.GroupLineage(ri)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			adv, advErr = Advance(res, grown)
		}()
		wg.Wait()
		if advErr != nil || !adv.Plan.Incremental {
			t.Fatalf("%s: Advance: %v", label, advErr)
		}
		if round%2 == 1 && !adv.lineBuilt {
			t.Fatalf("%s: Advance from a built lineage left it unbuilt", label)
		}
		for w := range got {
			for ri, l := range got[w] {
				if want := ref.GroupLineage(ri); !slices.Equal(l, want) {
					t.Fatalf("%s: reader %d group %d lineage %v, want %v", label, w, ri, l, want)
				}
			}
		}
		groupsEqual(t, label, ref, res)
		tablesEqual(t, label+" (advanced)", fresh.Table, adv.Table)
		groupsEqual(t, label+" (advanced)", fresh, adv)
	}
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
		if _, err := RunOn(tbl, stmt); err != nil { // warm the shared clause masks
			t.Fatal(err)
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := RunOn(tbl, stmt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
			t.Fatalf("%s: %d bytes allocated a run, want under 1 MiB", c.name, per)
		}
	}
}
