package agg

// This file holds the two interfaces the executor (internal/exec)
// accumulates through: FloatAdder, the unboxed
// counterpart of Add for numeric argument columns, and Merger, the
// shard-combine step of the partitioned scan.

// FloatAdder is the unboxed accumulation fast path: AddFloat folds one
// non-NULL numeric value — exactly the float64 coercion Add would
// compute via engine.Value.Float — into the state. The vectorized
// executor feeds FloatView/ArgView float slices through this interface
// so per-row accumulation never boxes.
//
// Callers must skip NULL rows themselves (Add ignores NULLs; AddFloat
// has no way to represent one). All shipped aggregates implement it
// except the Distinct wrapper, whose identity semantics need the boxed
// value.
type FloatAdder interface {
	Func
	// AddFloat folds one non-NULL numeric value into the state.
	AddFloat(f float64)
}

// Merger is implemented by aggregate states that can absorb another
// state of the same kind — the combine step of a partitioned scan: each
// shard accumulates privately, then states merge pairwise in shard
// order. Merge returns false (leaving the receiver unchanged) when
// other is not a compatible state; between states cloned from one
// prototype that cannot happen, and the executor reports it as an
// internal error.
//
// Merging must be equivalent to having Added other's values after the
// receiver's (Median concatenates in order so holistic results match
// the sequential scan exactly; the algebraic aggregates sum partial
// sums). The Distinct wrapper deliberately does not implement Merger —
// its per-shard states would double-count values seen by multiple
// shards — so a statement with a DISTINCT aggregate scans as a single
// shard of the same pipeline, and exec.Advance re-runs it instead of
// carrying its states.
type Merger interface {
	Func
	// Merge folds other's accumulated state into the receiver. It
	// reports whether other was a compatible state.
	Merge(other Func) bool
}

// Merge implements Merger.
func (c *Count) Merge(other Func) bool {
	o, ok := other.(*Count)
	if !ok {
		return false
	}
	c.n += o.n
	return true
}

// AddFloat implements FloatAdder.
func (c *Count) AddFloat(float64) { c.n++ }

// Merge implements Merger.
func (s *Sum) Merge(other Func) bool {
	o, ok := other.(*Sum)
	if !ok {
		return false
	}
	s.sum += o.sum
	s.n += o.n
	return true
}

// AddFloat implements FloatAdder.
func (s *Sum) AddFloat(f float64) {
	s.sum += f
	s.n++
}

// Merge implements Merger.
func (a *Avg) Merge(other Func) bool {
	o, ok := other.(*Avg)
	if !ok {
		return false
	}
	a.sum += o.sum
	a.n += o.n
	return true
}

// AddFloat implements FloatAdder.
func (a *Avg) AddFloat(f float64) {
	a.sum += f
	a.n++
}

// mergeFrom folds another variance state in, shared by Variance and the
// embedding Stddev.
func (v *Variance) mergeFrom(o *Variance) {
	v.sum += o.sum
	v.sumsq += o.sumsq
	v.n += o.n
}

// Merge implements Merger.
func (v *Variance) Merge(other Func) bool {
	o, ok := other.(*Variance)
	if !ok {
		return false
	}
	v.mergeFrom(o)
	return true
}

// AddFloat implements FloatAdder.
func (v *Variance) AddFloat(f float64) {
	v.sum += f
	v.sumsq += f * f
	v.n++
}

// Merge implements Merger. Stddev states only merge with Stddev states
// (the embedded Variance.Merge would reject them).
func (s *Stddev) Merge(other Func) bool {
	o, ok := other.(*Stddev)
	if !ok {
		return false
	}
	s.mergeFrom(&o.Variance)
	return true
}

// Merge implements Merger.
func (e *extremum) Merge(other Func) bool {
	o, ok := other.(*extremum)
	if !ok || o.min != e.min {
		return false
	}
	for f, c := range o.counts {
		e.counts[f] += c
	}
	if o.haveAny && (!e.haveAny || e.displaces(o.best, e.best)) {
		e.best = o.best
		e.haveAny = true
	}
	e.n += o.n
	return true
}

// AddFloat implements FloatAdder.
func (e *extremum) AddFloat(f float64) {
	e.counts[f]++
	if !e.haveAny || e.displaces(f, e.best) {
		e.best = f
		e.haveAny = true
	}
	e.n++
}

// Merge implements Merger. Appending other's values in shard order
// reproduces the sequential scan's multiset (order is irrelevant after
// the sort, but keeping it makes the merged state bit-identical).
func (m *Median) Merge(other Func) bool {
	o, ok := other.(*Median)
	if !ok {
		return false
	}
	m.vals = append(m.vals, o.vals...)
	m.sorted = false
	return true
}

// AddFloat implements FloatAdder.
func (m *Median) AddFloat(f float64) {
	m.vals = append(m.vals, f)
	m.sorted = false
}
