package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/enginetest"
)

// batchCell boxes cell r of batch column c, whose schema type is typ.
func batchCell(b *engine.Batch, c, r int, typ engine.Type) engine.Value {
	null, f, i, s := b.Col(c)
	switch {
	case null[r>>6]&(1<<(uint(r)&63)) != 0:
		return engine.Null
	case typ == engine.TFloat:
		return engine.NewFloat(f[r])
	case typ == engine.TString:
		return engine.NewString(s[r])
	}
	return engine.Value{T: typ, I: i[r]}
}

// TestBatchRangeMatchesValue: Table.Batch(lo, hi) is rows [lo, hi) of
// the version, cell for cell what Value boxes — NULLs, NaN payloads,
// strings, and int and time cells past 2^53 included — on held and
// faultable segments and on a retained version whose base is past 0,
// for empty ranges, ranges inside the tail and ranges across segment
// boundaries. A batch of every row appended to an empty table rebuilds
// the version.
func TestBatchRangeMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const seg = 1 << engine.MinSegmentBits
	rows := matrixRows(rng, 5*seg+23)
	build := func() *engine.Table {
		tbl, err := engine.NewTableSeg("p", matrixSchema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		if tbl, err = tbl.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	twin, l := enginetest.Faultable(build())
	retained, stats, err := twin.RetainTail(engine.RetentionPolicy{MaxRows: 2 * seg})
	if err != nil || retained.Base() == 0 {
		t.Fatalf("retain: %+v %v", stats, err)
	}
	for _, tc := range []struct {
		name string
		tbl  *engine.Table
	}{{"held", build()}, {"faultable", twin}, {"retained", retained}} {
		tbl, n := tc.tbl, tc.tbl.NumRows()
		sealed, _ := tbl.NumSegments()
		tail := sealed * seg
		ranges := [][2]int{{0, 0}, {n, n}, {tail, tail}, {0, n}, {tail, n}, {tail + 3, n - 2},
			{seg - 5, seg + 9}, {seg, 2 * seg}, {1, tail + 1}}
		for range 40 {
			lo := rng.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
		}
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			label := fmt.Sprintf("%s Batch(%d, %d)", tc.name, lo, hi)
			b := tbl.Batch(lo, hi)
			if b.Len() != hi-lo {
				t.Fatalf("%s: %d rows", label, b.Len())
			}
			for c, col := range tbl.Schema() {
				for r := lo; r < hi; r++ {
					if got, want := batchCell(b, c, r-lo, col.Type), tbl.Value(r, c); !sameCell(got, want) {
						t.Fatalf("%s: cell (%d, %d) = %#v, Value is %#v", label, r, c, got, want)
					}
				}
			}
		}
		empty, err := engine.NewTableSeg("p", tbl.Schema(), tbl.SegmentBits())
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := empty.AppendCols(tbl.Batch(0, n), 0, n)
		if err != nil {
			t.Fatal(err)
		}
		assertMatrix(t, tc.name+" rebuilt", rebuilt, rows[tbl.Base():])
		assertNoPins(t, tc.name, l)
	}
	if floats, codes, ints, _ := l.Counts(); floats == 0 || codes == 0 || ints == 0 {
		t.Fatalf("the twin served %d float, %d code and %d exact-int pins: some chunk kind went unread", floats, codes, ints)
	}
}
