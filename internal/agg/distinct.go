package agg

import (
	"iter"
	"math"

	"repro/internal/engine"
)

// Distinct wraps an aggregate so each distinct value contributes once:
// COUNT(DISTINCT x) / SUM(DISTINCT x) / AVG(DISTINCT x).
//
// Identity is Value.Key()'s: a string is itself (Add keys it so), and
// every numeric kind is its float64 with -0 folded into +0 and all NaNs
// one value — so AddFloat keys a set by those bits and is exact (an int
// past 2^53 has the identity of the float it rounds to, as in Key). A
// caller may feed any stand-in that is one-to-one with the values
// instead, as long as everything that adds to or removes from the state
// uses the same one: the executor feeds count(DISTINCT s) the column's
// dictionary codes.
//
// The state keeps first appearances in order with their multiplicities.
// The inner aggregate sees each value once, as first seen (a -0.0 seen
// before +0.0 reaches sum and min as -0.0), so a merged or copied state
// is bit-identical to the sequential scan's: Merge replays the other
// state's unseen values into the inner aggregate in their order instead
// of merging inner states, which would reassociate float sums. A value
// leaves the inner aggregate only when its last occurrence is removed.
type Distinct struct {
	inner Func
	nums  map[uint64]int32 // numeric identity → position in seen
	strs  map[string]int32 // string identity → position in seen
	seen  []distinctValue
}

// distinctValue is one distinct value: what the inner aggregate was fed
// (a string's Float(), as Add would take it), the string when the
// identity is one, and how many times it was added.
type distinctValue struct {
	f   float64
	s   string
	str bool
	n   int
}

// NewDistinct wraps inner with distinct semantics.
func NewDistinct(inner Func) *Distinct {
	return &Distinct{inner: inner, nums: make(map[uint64]int32), strs: make(map[string]int32)}
}

// numKey is the numeric identity of f (engine.Value.Key's, as bits).
func numKey(f float64) uint64 {
	switch {
	case f != f:
		return math.Float64bits(math.NaN())
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// find returns the position in seen of dv's identity, or -1.
func (d *Distinct) find(dv distinctValue) int32 {
	if dv.str {
		if i, ok := d.strs[dv.s]; ok {
			return i
		}
	} else if i, ok := d.nums[numKey(dv.f)]; ok {
		return i
	}
	return -1
}

// add folds n occurrences of dv in.
func (d *Distinct) add(dv distinctValue, n int) {
	i := d.find(dv)
	if i < 0 {
		if i = int32(len(d.seen)); dv.str {
			d.strs[dv.s] = i
		} else {
			d.nums[numKey(dv.f)] = i
		}
		dv.n = 0
		d.seen = append(d.seen, dv)
		d.inner.AddFloat(dv.f)
	}
	d.seen[i].n += n
}

// Name implements Func.
func (d *Distinct) Name() string { return d.inner.Name() + " distinct" }

// AddFloat implements Func.
func (d *Distinct) AddFloat(f float64) { d.add(distinctValue{f: f}, 1) }

// AddFloats implements Func.
func (d *Distinct) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			d.add(distinctValue{f: vals[o]}, 1)
		}
	}
}

// Merge implements Func.
func (d *Distinct) Merge(other Func) bool {
	o, ok := other.(*Distinct)
	if !ok || o.inner.Name() != d.inner.Name() {
		return false
	}
	for _, dv := range o.seen {
		d.add(dv, dv.n)
	}
	return true
}

// Result implements Func.
func (d *Distinct) Result() engine.Value { return d.inner.Result() }

// Count implements Func (number of distinct non-NULL values).
func (d *Distinct) Count() int { return len(d.seen) }

// Clone implements Func.
func (d *Distinct) Clone() Func { return NewDistinct(d.inner.Clone()) }

// without removes one occurrence per entry of pos — a position in seen,
// or -1 for a value never added; removals past a value's multiplicity are
// ignored. It returns the inner values of the distinct values that go,
// in the order their last copy goes, and the inner values of those left,
// in first-appearance order: the inner state's removal and its kept.
func (d *Distinct) without(pos []int32) (gone []float64, kept iter.Seq[float64]) {
	left := make(map[int32]int, len(pos))
	for _, i := range pos {
		if i < 0 {
			continue
		}
		c, touched := left[i]
		if !touched {
			c = d.seen[i].n
		}
		if left[i] = c - 1; c == 1 {
			gone = append(gone, d.seen[i].f)
		}
	}
	return gone, func(yield func(float64) bool) {
		for i, dv := range d.seen {
			if c, touched := left[int32(i)]; (!touched || c > 0) && !yield(dv.f) {
				return
			}
		}
	}
}

// ResultWithoutFloats implements Func. The caller's kept is not read:
// the inner state's survivors are the distinct values left.
func (d *Distinct) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	pos := make([]int32, len(vals))
	for j, f := range vals {
		pos[j] = d.find(distinctValue{f: f})
	}
	return d.inner.ResultWithoutFloats(d.without(pos))
}
