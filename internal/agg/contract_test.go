package agg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

// The contract on Func, checked for every aggregate × {plain, DISTINCT}
// on one multiset of adds and one multiset of removals:
//
//  1. AddFloat ≡ Add;
//  2. adds split at every point, each half accumulated alone, then merged
//     ≡ the sequential state (and Clone+Merge is a copy), Result()
//     bit-equal;
//  3. ResultWithoutFloats ≡ the boxed ResultWithoutSet, and neither moves
//     the state's next Result().
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
// payload a NaN result carries is the hardware's choice (and for min/max
// over only NaNs, map iteration's).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameValue(a, b engine.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return sameFloat(a.Float(), b.Float())
}

func checkContract(t testing.TB, adds, rms []byte) {
	addIdx, rmIdx := decodeContract(adds, rms)
	exact := true
	for _, i := range addIdx {
		exact = exact && contractPool[i].exact
	}
	for i := 0; i < 2*len(Names()); i++ {
		inner, distinct := Names()[i/2], i%2 == 1
		fresh := func() Func {
			f, _ := New(inner) // every one of Names() is an aggregate
			if distinct {
				return NewDistinct(f)
			}
			return f
		}
		name := fresh().Name()
		exactInner := inner == "count" || inner == "min" || inner == "max" || inner == "median"
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
					f.Add(v)
				}
			}
			return f
		}

		// 1. AddFloat ≡ Add.
		seq := fill(fresh(), addIdx, false)
		want := seq.Result()
		if got := fill(fresh(), addIdx, true); !sameValue(got.Result(), want) || got.Count() != seq.Count() {
			fail("AddFloat state = %v (count %d), Add state = %v (count %d)", got.Result(), got.Count(), want, seq.Count())
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
		}
		dup := seq.Clone()
		if dup.Count() != 0 || !dup.Merge(seq) || !sameValue(dup.Result(), want) || dup.Count() != seq.Count() {
			fail("Clone+Merge copy = %v (count %d), original = %v (count %d)", dup.Result(), dup.Count(), want, seq.Count())
		}
		if other := NewDistinct(&Median{}); name != other.Name() && seq.Merge(other) {
			fail("Merge accepted a %s state", other.Name())
		}

		// 3. Float removal ≡ boxed removal, and neither mutates.
		rmF, rmV := make([]float64, len(rmIdx)), make([]engine.Value, len(rmIdx))
		for j, i := range rmIdx {
			rmV[j], rmF[j] = contractPool[i].v, contractPool[i].v.Float()
		}
		// (Equal as numbers, not bits: min/max's boxed rescan reads a zero's
		// sign off a map key, which Go rewrites on every insert.)
		boxed := seq.ResultWithoutSet(append(rmV, engine.Null)) // a NULL removes nothing
		f, ok := seq.ResultWithoutFloats(rmF)
		if ok == boxed.IsNull() || (ok && f != boxed.Float() && !sameFloat(f, boxed.Float())) {
			fail("ResultWithoutFloats = %v,%v, ResultWithoutSet = %v", f, ok, boxed)
		}
		if got := seq.Result(); !sameValue(got, want) {
			fail("removal evaluation moved Result() from %v to %v", want, got)
		}
		if !distinct {
			continue
		}
		// DISTINCT removal is defined for any multiset (unknown values and
		// copies past a value's multiplicity are ignored): where the inner
		// aggregate is exact and order-free, it must equal a recompute over
		// what is left. (A NaN can be removed from the set but not from
		// min/max/median, whose float maps never match one: skip those.)
		left := make(map[string]int)
		for _, i := range addIdx {
			left[contractPool[i].v.Key()]++
		}
		for _, i := range rmIdx {
			left[contractPool[i].v.Key()]--
		}
		re, nan := fresh(), false
		for _, i := range addIdx {
			v := contractPool[i].v
			nan = nan || v.Float() != v.Float()
			if left[v.Key()] > 0 {
				re.Add(v)
			}
		}
		if want := re.Result(); exactInner && !nan && (ok == want.IsNull() || (ok && want.Float() != f)) {
			fail("ResultWithoutFloats = %v,%v, recompute over what is left = %v", f, ok, want)
		}
	}
}

// contractEdges are the inputs no random draw is trusted to hit; the same
// bytes are FuzzAggContract's checked-in corpus (testdata/fuzz).
var contractEdges = []struct{ adds, rms []byte }{
	{nil, nil},                                  // the empty state
	{nil, []byte{0, 5}},                         // removing from it
	{[]byte{0, 1, 2}, []byte{0x80}},             // 0.1 + 1e16 - 1e16: order-sensitive sum
	{[]byte{2, 0, 1, 0, 2, 1}, []byte{0x81}},    // the same with duplicates straddling every split
	{[]byte{6, 5, 12}, []byte{0x80}},            // -0.0 before +0.0: sum and min see -0.0
	{[]byte{5, 6, 12}, []byte{0x81, 0x80}},      // +0.0 before -0.0
	{[]byte{3, 4, 12, 3}, []byte{0x80, 4}},      // two NaN payloads
	{[]byte{7, 8, 9, 10, 11}, []byte{8, 0x83}},  // ints at and past ±2^53
	{[]byte{12, 13, 12, 18}, []byte{0x80, 12}},  // all duplicates (1, int 1, true): removing some
	{[]byte{14, 14, 14}, []byte{14, 14, 14}},    // … removing the last copy
	{[]byte{14, 15}, []byte{14, 14, 14, 16, 0}}, // … more copies than exist, and values never added
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
