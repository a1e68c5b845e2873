package agg

import (
	"fmt"
	"hash/fnv"
	"iter"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
)

// The contract on Func, checked for every aggregate × {plain, DISTINCT}
// on one multiset of adds and one multiset of removals:
//
//  1. AddFloat ≡ Add, and AddFloats over a selection with NULL words ≡
//     AddFloat of each selected non-NULL cell, in Result() and Count();
//  2. adds split at every point, each half accumulated alone, then merged
//     ≡ the sequential state (and Clone+Merge is a copy), Result() and
//     removal bit-equal; Merge refuses every state of another name;
//  3. ResultWithoutFloats never moves the state's next Result(); for min
//     and max (and every DISTINCT state over an exact inner one) it ≡ a
//     recompute over what is left.
//
// contractPool is what the inputs draw from. The inexact entries make a
// float sum depend on association — 0.1 + 1e16 - 1e16 — so plain sum,
// avg, var and stddev, which merge partial sums, are held to (2) only on
// exact inputs (ROADMAP item 3 is the order contract that would lift
// that); DISTINCT replays values in first-appearance order and is held to
// it on everything.
var contractPool = []struct {
	v     engine.Value
	exact bool
}{
	{engine.NewFloat(0.1), false},
	{engine.NewFloat(1e16), false},
	{engine.NewFloat(-1e16), false},
	{engine.NewFloat(math.Float64frombits(0x7FF8000000000001)), false}, // two NaN payloads,
	{engine.NewFloat(math.Float64frombits(0xFFF8000000000002)), false}, // one identity
	{engine.NewFloat(0), true},
	{engine.NewFloat(math.Copysign(0, -1)), true},
	{engine.NewInt(1 << 53), false},   // ints at and past ±2^53: identity and
	{engine.NewInt(1<<53 + 1), false}, // value are the float they round to
	{engine.NewInt(1<<53 + 2), false},
	{engine.NewInt(-(1 << 53)), false},
	{engine.NewInt(-(1<<53 + 1)), false},
	{engine.NewFloat(1), true},
	{engine.NewInt(1), true},
	{engine.NewFloat(2.5), true},
	{engine.NewFloat(-3.25), true},
	{engine.NewInt(7), true},
	{engine.NewFloat(0.25), true},
	{engine.NewBool(true), true},
	{engine.NewTimeUnix(7), true},
}

// decodeContract turns fuzz bytes into pool indexes: one per add, and per
// removal either the index of some add (high bit: a copy that exists,
// until removed more often than added) or any pool entry (possibly never
// added).
func decodeContract(adds, rms []byte) (addIdx, rmIdx []int) {
	for _, b := range adds {
		addIdx = append(addIdx, int(b)%len(contractPool))
	}
	for _, b := range rms {
		if b&0x80 != 0 && len(addIdx) > 0 {
			rmIdx = append(rmIdx, addIdx[int(b&0x7F)%len(addIdx)])
		} else {
			rmIdx = append(rmIdx, int(b)%len(contractPool))
		}
	}
	return addIdx, rmIdx
}

// sameFloat is bit equality, except that any two NaNs are equal: which
// payload a NaN result carries is the hardware's choice.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameValue(a, b engine.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return sameFloat(a.Float(), b.Float())
}

// batchOf lays the adds out as a chunk for AddFloats: the add values in
// random cells among NULL ones (whose values are junk), and a selection
// listing every add's cell in add order plus some NULL cells. The layout
// is a function of the fuzz bytes.
func batchOf(adds, rms []byte, addIdx []int) (vals []float64, null []uint64, sel []int32) {
	h := fnv.New64a()
	h.Write(adds)
	h.Write([]byte{0xff})
	h.Write(rms)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	vals = make([]float64, 2*len(addIdx)+rng.Intn(70))
	null = make([]uint64, (len(vals)+63)/64)
	cells := rng.Perm(len(vals))
	for j, c := range cells {
		if j < len(addIdx) {
			vals[c] = contractPool[addIdx[j]].v.Float()
			continue
		}
		vals[c], null[c/64] = 1e300, null[c/64]|1<<(c%64)
	}
	for j := range addIdx {
		for rng.Intn(3) == 0 { // a NULL cell before the add's
			sel = append(sel, int32(cells[len(addIdx)+rng.Intn(len(vals)-len(addIdx))]))
		}
		sel = append(sel, int32(cells[j]))
	}
	return vals, null, sel
}

// keptAfterRemoval is what removing rmIdx from addIdx leaves, in add
// order: each removal takes the first remaining add of its identity
// (Value.Key: -0 is +0, every NaN one value), and one never added takes
// nothing.
func keptAfterRemoval(addIdx, rmIdx []int) []int {
	kept := slices.Clone(addIdx)
	for _, r := range rmIdx {
		if i := slices.IndexFunc(kept, func(a int) bool { return contractPool[a].v.Key() == contractPool[r].v.Key() }); i >= 0 {
			kept = slices.Delete(kept, i, i+1)
		}
	}
	return kept
}

func checkContract(t testing.TB, adds, rms []byte) {
	addIdx, rmIdx := decodeContract(adds, rms)
	exact := true
	for _, i := range addIdx {
		exact = exact && contractPool[i].exact
	}
	vals, null, sel := batchOf(adds, rms, addIdx)
	keptIdx := keptAfterRemoval(addIdx, rmIdx)
	kinds := names()
	state := func(i int) Func {
		f, _ := New(kinds[i/2]) // every one of names() is an aggregate
		if i%2 == 1 {
			return NewDistinct(f)
		}
		return f
	}
	for i := 0; i < 2*len(kinds); i++ {
		inner, distinct := kinds[i/2], i%2 == 1
		fresh := func() Func { return state(i) }
		name := fresh().Name()
		extremum := inner == "min" || inner == "max"
		exactInner := inner == "count" || extremum || inner == "median"
		orderFree := distinct || exactInner
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s adds=%v rms=%v: %s", name, addIdx, rmIdx, fmt.Sprintf(format, args...))
		}
		fill := func(f Func, idx []int, float bool) Func {
			for _, i := range idx {
				if v := contractPool[i].v; float {
					f.AddFloat(v.Float())
				} else {
					Add(f, v)
				}
			}
			return f
		}

		// 1. AddFloat ≡ Add; AddFloats ≡ AddFloat per selected non-NULL cell,
		// whether the selection comes as one run or two.
		seq := fill(fresh(), addIdx, false)
		want := seq.Result()
		if got := fill(fresh(), addIdx, true); !sameValue(got.Result(), want) || got.Count() != seq.Count() {
			fail("AddFloat state = %v (count %d), Add state = %v (count %d)", got.Result(), got.Count(), want, seq.Count())
		}
		for _, cut := range []int{len(sel), len(sel) / 2} {
			batch := fresh()
			batch.AddFloats(vals, null, sel[:cut])
			batch.AddFloats(vals, null, sel[cut:])
			if !sameValue(batch.Result(), want) || batch.Count() != seq.Count() {
				fail("AddFloats (runs cut at %d of %d) = %v (count %d), AddFloat state = %v (count %d)", cut, len(sel), batch.Result(), batch.Count(), want, seq.Count())
			}
		}

		// What clauses 2 and 3 remove.
		rmF := make([]float64, len(rmIdx))
		for j, i := range rmIdx {
			rmF[j] = contractPool[i].v.Float()
		}
		var keptF iter.Seq[float64] = func(yield func(float64) bool) {
			for _, i := range keptIdx {
				if !yield(contractPool[i].v.Float()) {
					return
				}
			}
		}
		// 2. Split + Merge ≡ sequential; Clone + Merge is a copy.
		for k := 0; k <= len(addIdx); k++ {
			left, right := fill(fresh(), addIdx[:k], k%2 == 0), fill(fresh(), addIdx[k:], k%2 == 1)
			if !left.Merge(right) {
				fail("split %d: Merge refused a state of its own kind", k)
			}
			if left.Count() != seq.Count() {
				fail("split %d: merged count %d, sequential %d", k, left.Count(), seq.Count())
			}
			if got := left.Result(); (orderFree || exact) && !sameValue(got, want) {
				fail("split %d: merged = %v, sequential = %v", k, got, want)
			}
			lf, lok := left.ResultWithoutFloats(rmF, keptF)
			if sf, sok := seq.ResultWithoutFloats(rmF, keptF); (orderFree || exact) && (lok != sok || (lok && !sameFloat(lf, sf))) {
				fail("split %d: merged state's removal = %v,%v, sequential's = %v,%v", k, lf, lok, sf, sok)
			}
		}
		dup := seq.Clone()
		if dup.Count() != 0 || !dup.Merge(seq) || !sameValue(dup.Result(), want) || dup.Count() != seq.Count() {
			fail("Clone+Merge copy = %v (count %d), original = %v (count %d)", dup.Result(), dup.Count(), want, seq.Count())
		}
		for j := range 2 * len(kinds) {
			if other := state(j); other.Name() != name && seq.Merge(other) {
				fail("Merge accepted a %s state", other.Name())
			}
		}

		// 3. Removal does not mutate.
		f, ok := seq.ResultWithoutFloats(rmF, keptF)
		if got := seq.Result(); !sameValue(got, want) {
			fail("removal evaluation moved Result() from %v to %v", want, got)
		}
		// Removal ≡ a recompute over what is left, as numbers: for min and
		// max, and for DISTINCT over an exact inner aggregate (DISTINCT
		// removal is defined for any multiset: unknown values and copies
		// past a value's multiplicity are ignored). Two exceptions keep
		// the old answers: a NaN extremum — every value NaN — survives any
		// removal, and median's removal never matches a NaN.
		nan := slices.ContainsFunc(addIdx, func(i int) bool { f := contractPool[i].v.Float(); return f != f })
		if !exactInner || !(distinct || extremum) || (extremum && want.Float() != want.Float()) || (inner == "median" && nan) {
			continue
		}
		re := fill(fresh(), keptIdx, false).Result()
		if ok == re.IsNull() || (ok && f != re.Float() && !sameFloat(f, re.Float())) {
			fail("ResultWithoutFloats = %v,%v, recompute over what is left = %v", f, ok, re)
		}
	}
}

// contractEdges are the inputs no random draw is trusted to hit; the same
// bytes are FuzzAggContract's checked-in corpus (testdata/fuzz).
var contractEdges = []struct{ adds, rms []byte }{
	{nil, nil},                                   // the empty state
	{nil, []byte{0, 5}},                          // removing from it
	{[]byte{0, 1, 2}, []byte{0x80}},              // 0.1 + 1e16 - 1e16: order-sensitive sum
	{[]byte{2, 0, 1, 0, 2, 1}, []byte{0x81}},     // the same with duplicates straddling every split
	{[]byte{6, 5, 12}, []byte{0x80}},             // -0.0 before +0.0: sum and min see -0.0
	{[]byte{5, 6, 12}, []byte{0x81, 0x80}},       // +0.0 before -0.0
	{[]byte{3, 4, 12, 3}, []byte{0x80, 4}},       // two NaN payloads
	{[]byte{7, 8, 9, 10, 11}, []byte{8, 0x83}},   // ints at and past ±2^53
	{[]byte{12, 13, 12, 18}, []byte{0x80, 12}},   // all duplicates (1, int 1, true): removing some
	{[]byte{14, 14, 14}, []byte{14, 14, 14}},     // … removing the last copy
	{[]byte{14, 15}, []byte{14, 14, 14, 16, 0}},  // … more copies than exist, and values never added
	{[]byte{16, 16, 14, 15}, []byte{16, 16, 15}}, // every copy of max and of min: both recompute
	{[]byte{6, 5, 15}, []byte{0x80, 0x81}},       // both signed zeros, max's tie, go
	{[]byte{3, 4}, []byte{0x80, 0x81}},           // every NaN goes: a NaN extremum survives
	{[]byte{3, 14}, []byte{14}},                  // the real extremum goes, a NaN is left
}

func TestAggContract(t *testing.T) {
	for _, c := range contractEdges {
		checkContract(t, c.adds, c.rms)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		adds, rms := make([]byte, rng.Intn(12)), make([]byte, rng.Intn(8))
		rng.Read(adds)
		rng.Read(rms)
		checkContract(t, adds, rms)
	}
}

// FuzzAggContract explores the same property; the corpus under
// testdata/fuzz replays on every go test.
func FuzzAggContract(f *testing.F) {
	f.Fuzz(func(t *testing.T, adds, rms []byte) {
		if len(adds) > 64 || len(rms) > 64 {
			t.Skip() // every split is scanned: keep an input quadratic in little
		}
		checkContract(t, adds, rms)
	})
}
