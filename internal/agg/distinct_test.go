package agg

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func TestDistinctCount(t *testing.T) {
	d := NewDistinct(&count{})
	feed(d, 1, 2, 2, 3, 3, 3)
	if got := d.Result().Int(); got != 3 {
		t.Errorf("count distinct = %d", got)
	}
	if d.Count() != 3 {
		t.Errorf("Count() = %d", d.Count())
	}
	Add(d, engine.Null)
	if got := d.Result().Int(); got != 3 {
		t.Errorf("NULL counted: %d", got)
	}
}

// TestDistinctStringIdentity pins what Add keys a string by: the string
// "1" and the number 1 are two values, a repeated string is one, and a
// NULL adds nothing.
func TestDistinctStringIdentity(t *testing.T) {
	d := NewDistinct(&count{})
	for _, v := range []engine.Value{engine.NewString("1"), engine.NewFloat(1), engine.NewString("1"), engine.NewString("b"), engine.Null} {
		Add(d, v)
	}
	if got := d.Result().Int(); got != 3 || d.Count() != 3 {
		t.Errorf("count distinct of \"1\", 1, \"1\", \"b\", NULL = %d (Count %d), want 3", got, d.Count())
	}
}

func TestDistinctSum(t *testing.T) {
	d := NewDistinct(&Sum{})
	feed(d, 5, 5, 7)
	if got := d.Result().Float(); got != 12 {
		t.Errorf("sum distinct = %v", got)
	}
}

func TestDistinctRemoveLastOccurrence(t *testing.T) {
	d := NewDistinct(&Sum{})
	feed(d, 5, 5, 7)
	// Removing one 5 keeps the distinct set {5, 7}.
	if got, _ := d.ResultWithoutFloats([]float64{5}, nil); got != 12 {
		t.Errorf("without one of two 5s: %v", got)
	}
	// Removing the second 5 drops it from the distinct set; a value not
	// present is a no-op.
	if got, _ := d.ResultWithoutFloats([]float64{5, 99, 5}, nil); got != 7 {
		t.Errorf("without both 5s: %v", got)
	}
	if got := d.Result().Float(); got != 12 {
		t.Errorf("removal evaluation mutated the state: %v", got)
	}
}

func TestDistinctResultWithout(t *testing.T) {
	d := NewDistinct(&count{})
	feed(d, 1, 1, 2)
	// One of two 1s: distinct set unchanged.
	if got, _ := d.ResultWithoutFloats([]float64{1}, nil); got != 2 {
		t.Errorf("without one 1: %v", got)
	}
	// The only 2: distinct count drops.
	if got, _ := d.ResultWithoutFloats([]float64{2}, nil); got != 1 {
		t.Errorf("without the 2: %v", got)
	}
}

// Property: Distinct(inner).ResultWithoutFloats ≡ recompute over the
// multiset minus the removed values.
func TestDistinctWithoutSetMatchesRecompute(t *testing.T) {
	for _, name := range []string{"count", "sum", "avg", "min", "max"} {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(raw []int8, mask uint16) bool {
				if len(raw) < 3 {
					return true
				}
				vals := make([]float64, len(raw))
				for i, r := range raw {
					vals[i] = float64(r % 8) // force duplicates
				}
				var removed, rest []float64
				for i, v := range vals {
					if mask&(1<<(i%16)) != 0 && len(removed) < len(vals)-1 {
						removed = append(removed, v)
					} else {
						rest = append(rest, v)
					}
				}
				inner, _ := New(name)
				d := NewDistinct(inner)
				feed(d, vals...)
				got := value(d.ResultWithoutFloats(removed, nil))

				inner2, _ := New(name)
				want := NewDistinct(inner2)
				feed(want, rest...)
				return valueClose(got, want.Result())
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: removing one occurrence ≡ recompute, including duplicate
// handling.
func TestDistinctRemoveMatchesRecompute(t *testing.T) {
	f := func(raw []int8, removeIdx uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r % 5)
		}
		idx := int(removeIdx) % len(vals)
		d := NewDistinct(&Sum{})
		feed(d, vals...)
		got := value(d.ResultWithoutFloats(vals[idx:idx+1], nil))

		rest := append(append([]float64(nil), vals[:idx]...), vals[idx+1:]...)
		want := NewDistinct(&Sum{})
		feed(want, rest...)
		return valueClose(got, want.Result())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctClone(t *testing.T) {
	d := NewDistinct(&count{})
	feed(d, 1, 2)
	c := d.Clone()
	if c.Count() != 0 {
		t.Error("clone not empty")
	}
	if c.Name() != "count distinct" {
		t.Errorf("clone name: %s", c.Name())
	}
}
