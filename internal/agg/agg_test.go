package agg

import (
	"iter"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func feed(f Func, vals ...float64) {
	for _, v := range vals {
		f.AddFloat(v)
	}
}

func res(f Func) float64 { return f.Result().Float() }

// keptAfter is what removing rm from the added vals leaves: vals minus
// one == copy per entry of rm, in add order.
func keptAfter(vals, rm []float64) iter.Seq[float64] {
	left := slices.Clone(vals)
	for _, r := range rm {
		if i := slices.Index(left, r); i >= 0 {
			left = slices.Delete(left, i, i+1)
		}
	}
	return slices.Values(left)
}

func TestAggregateBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 10}
	cases := []struct {
		name string
		want float64
	}{
		{"count", 5},
		{"sum", 20},
		{"avg", 4},
		{"min", 1},
		{"max", 10},
		{"median", 3},
		{"var", 12.5},                 // sample variance
		{"stddev", math.Sqrt(12.5)},   // sample stddev
		{"var_pop", 10},               // population
		{"stddev_pop", math.Sqrt(10)}, //
	}
	for _, c := range cases {
		f, err := New(c.name)
		if err != nil {
			t.Fatalf("New(%s): %v", c.name, err)
		}
		feed(f, vals...)
		if got := res(f); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
		if f.Count() != 5 {
			t.Errorf("%s Count = %d", c.name, f.Count())
		}
	}
}

func TestEmptyAggregates(t *testing.T) {
	for _, name := range names() {
		f, _ := New(name)
		r := f.Result()
		if name == "count" {
			if r.Int() != 0 {
				t.Errorf("empty count = %v", r)
			}
		} else if !r.IsNull() {
			t.Errorf("empty %s = %v, want NULL", name, r)
		}
	}
}

func TestNullsIgnored(t *testing.T) {
	for _, name := range names() {
		f, _ := New(name)
		Add(f, engine.Null)
		Add(f, engine.NewFloat(5))
		Add(f, engine.Null)
		if f.Count() != 1 {
			t.Errorf("%s counted NULLs: %d", name, f.Count())
		}
	}
}

func TestUnknownAggregate(t *testing.T) {
	if _, err := New("bogus"); err == nil {
		t.Error("bogus aggregate accepted")
	}
	if IsAggregate("bogus") || !IsAggregate("AVG") {
		t.Error("IsAggregate wrong")
	}
}

// brute recomputes an aggregate from scratch over vals.
func brute(t *testing.T, name string, vals []float64) engine.Value {
	t.Helper()
	f, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	feed(f, vals...)
	return f.Result()
}

// Property: ResultWithoutFloats of one value (the leave-one-out shape) ==
// recompute without one occurrence of it, for every aggregate, under
// random inputs.
func TestResultWithoutMatchesRecompute(t *testing.T) {
	for _, name := range names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(raw []int8, removeIdx uint8) bool {
				if len(raw) < 2 {
					return true
				}
				vals := make([]float64, len(raw))
				for i, r := range raw {
					vals[i] = float64(r) / 4
				}
				idx := int(removeIdx) % len(vals)

				acc, _ := New(name)
				feed(acc, vals...)
				rest := append(append([]float64(nil), vals[:idx]...), vals[idx+1:]...)
				return valueClose(value(acc.ResultWithoutFloats(vals[idx:idx+1], slices.Values(rest))), brute(t, name, rest))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: ResultWithoutFloats(S) == recompute without S.
func TestResultWithoutSetMatchesRecompute(t *testing.T) {
	for _, name := range names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(raw []int8, mask uint16) bool {
				if len(raw) < 3 {
					return true
				}
				vals := make([]float64, len(raw))
				for i, r := range raw {
					vals[i] = float64(r)
				}
				var removed, rest []float64
				for i, v := range vals {
					if mask&(1<<(i%16)) != 0 && len(removed) < len(vals)-1 {
						removed = append(removed, v)
					} else {
						rest = append(rest, v)
					}
				}
				acc, _ := New(name)
				feed(acc, vals...)
				return valueClose(value(acc.ResultWithoutFloats(removed, slices.Values(rest))), brute(t, name, rest))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: the removal of one integer value == recompute without it,
// and the state's own Result is untouched.
func TestRemoveMatchesRecompute(t *testing.T) {
	for _, name := range names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(raw []int8, removeIdx uint8) bool {
				if len(raw) < 2 {
					return true
				}
				vals := make([]float64, len(raw))
				for i, r := range raw {
					vals[i] = float64(r)
				}
				idx := int(removeIdx) % len(vals)
				acc, _ := New(name)
				feed(acc, vals...)
				rest := append(append([]float64(nil), vals[:idx]...), vals[idx+1:]...)
				got := value(acc.ResultWithoutFloats(vals[idx:idx+1], slices.Values(rest)))
				return valueClose(got, brute(t, name, rest)) && valueClose(acc.Result(), brute(t, name, vals))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

func valueClose(a, b engine.Value) bool {
	if a.IsNull() != b.IsNull() {
		return false
	}
	if a.IsNull() {
		return true
	}
	af, bf := a.Float(), b.Float()
	if math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
	return math.Abs(af-bf) <= 1e-6*scale
}

func TestExtremumRemoveRescan(t *testing.T) {
	f, _ := New("max")
	added := []float64{5, 5, 3}
	feed(f, added...)
	without := func(rm ...float64) (float64, bool) { return f.ResultWithoutFloats(rm, keptAfter(added, rm)) }
	// Removing one of two 5s keeps max at 5.
	if got, ok := without(5); !ok || got != 5 {
		t.Errorf("max without one 5: %v %v", got, ok)
	}
	if got, ok := without(5, 5); !ok || got != 3 {
		t.Errorf("max without both 5s: %v %v", got, ok)
	}
	// Removing more copies of a value than exist must not hide the 5s.
	if got, ok := without(3, 3, 3, 3); !ok || got != 5 {
		t.Errorf("max without four 3s: %v %v", got, ok)
	}
	if _, ok := without(5, 5, 3); ok {
		t.Error("empty max should be NULL")
	}
}

// TestExtremumFoldsWithoutAllocating pins min and max to a summary state:
// AddFloat, AddFloats and Merge over 4,096 distinct values allocate
// nothing (a per-value multiset would grow with them).
func TestExtremumFoldsWithoutAllocating(t *testing.T) {
	vals, null, sel := make([]float64, 4096), make([]uint64, 4096/64), make([]int32, 4096)
	for i := range vals {
		vals[i], sel[i] = float64(i)*1.5-1000, int32(i)
	}
	for _, name := range []string{"min", "max"} {
		a, _ := New(name)
		b := a.Clone()
		allocs := testing.AllocsPerRun(10, func() {
			for _, f := range vals {
				a.AddFloat(f)
			}
			b.AddFloats(vals, null, sel)
			a.Merge(b)
		})
		if allocs != 0 {
			t.Fatalf("%s: folding 4,096 distinct values allocates %v times, want 0", name, allocs)
		}
	}
}

func TestMedianEvenOdd(t *testing.T) {
	f, _ := New("median")
	feed(f, 4, 1, 3)
	if res(f) != 3 {
		t.Errorf("odd median: %v", res(f))
	}
	Add(f, engine.NewFloat(2))
	if res(f) != 2.5 {
		t.Errorf("even median: %v", res(f))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	for _, name := range names() {
		orig, _ := New(name)
		feed(orig, 1, 2, 3)
		c := orig.Clone()
		if c.Count() != 0 {
			t.Errorf("%s clone not empty: %d", name, c.Count())
		}
		feed(c, 10)
		if orig.Count() != 3 {
			t.Errorf("%s clone shares state", name)
		}
	}
}

func TestSumOfAllRemovedIsNull(t *testing.T) {
	f, _ := New("sum")
	feed(f, 5)
	if got, ok := f.ResultWithoutFloats([]float64{5}, nil); ok {
		t.Errorf("sum of nothing: %v", got)
	}
}

func TestStddevSampleName(t *testing.T) {
	s, _ := New("stddev")
	if s.Name() != "stddev" {
		t.Errorf("name: %s", s.Name())
	}
	sp, _ := New("stddev_pop")
	if sp.Name() != "stddev_pop" {
		t.Errorf("name: %s", sp.Name())
	}
	// Clone preserves sampleness.
	if s.Clone().Name() != "stddev" {
		t.Error("clone lost sample flag")
	}
}

func TestNamesSorted(t *testing.T) {
	names := names()
	for _, n := range names {
		if !IsAggregate(n) {
			t.Errorf("Names contains non-aggregate %q", n)
		}
	}
	if sort.StringsAreSorted(names) {
		// Names are in a curated order, not sorted — just assert count.
		_ = names
	}
	if len(names) != 10 {
		t.Errorf("expected 10 canonical names, got %d", len(names))
	}
}
