package exec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/predicate"
)

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
		t.Helper()
		if _, err := RunOn(tbl, mustParse(t, fmt.Sprintf("SELECT count(*) AS n FROM readings WHERE temperature > %v", x))); err != nil {
			t.Fatal(err)
		}
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
	if again.Len() != firstBits.Len() || !slicesEqual(again.Words(), firstBits.Words()) {
		t.Fatal("the evicted literal rebuilt different bits")
	}
}

func slicesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
