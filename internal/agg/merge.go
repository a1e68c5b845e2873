package agg

// AddFloat, AddFloats and Merge of every aggregate (the contract is on
// Func). Each AddFloats is its own loop, so the per-value fold is a
// direct call, not one through the interface.

// Merge implements Func.
func (c *Count) Merge(other Func) bool {
	o, ok := other.(*Count)
	if !ok {
		return false
	}
	c.n += o.n
	return true
}

// AddFloat implements Func.
func (c *Count) AddFloat(float64) { c.n++ }

// AddFloats implements Func.
func (c *Count) AddFloats(_ []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			c.n++
		}
	}
}

// Merge implements Func.
func (s *Sum) Merge(other Func) bool {
	o, ok := other.(*Sum)
	if !ok {
		return false
	}
	s.sum += o.sum
	s.n += o.n
	return true
}

// AddFloat implements Func.
func (s *Sum) AddFloat(f float64) {
	s.sum += f
	s.n++
}

// AddFloats implements Func.
func (s *Sum) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			s.AddFloat(vals[o])
		}
	}
}

// Merge implements Func.
func (a *Avg) Merge(other Func) bool {
	o, ok := other.(*Avg)
	if !ok {
		return false
	}
	a.sum += o.sum
	a.n += o.n
	return true
}

// AddFloat implements Func.
func (a *Avg) AddFloat(f float64) {
	a.sum += f
	a.n++
}

// AddFloats implements Func.
func (a *Avg) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			a.AddFloat(vals[o])
		}
	}
}

// mergeFrom folds another variance state in, shared by Variance and the
// embedding Stddev.
func (v *Variance) mergeFrom(o *Variance) {
	v.sum += o.sum
	v.sumsq += o.sumsq
	v.n += o.n
}

// Merge implements Func.
func (v *Variance) Merge(other Func) bool {
	o, ok := other.(*Variance)
	if !ok {
		return false
	}
	v.mergeFrom(o)
	return true
}

// AddFloat implements Func.
func (v *Variance) AddFloat(f float64) {
	v.sum += f
	v.sumsq += f * f
	v.n++
}

// AddFloats implements Func (and, embedded, for Stddev).
func (v *Variance) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			v.AddFloat(vals[o])
		}
	}
}

// Merge implements Func. Stddev states only merge with Stddev states
// (the embedded Variance.Merge would reject them).
func (s *Stddev) Merge(other Func) bool {
	o, ok := other.(*Stddev)
	if !ok {
		return false
	}
	s.mergeFrom(&o.Variance)
	return true
}

// Merge implements Func.
func (e *extremum) Merge(other Func) bool {
	o, ok := other.(*extremum)
	if !ok || o.min != e.min {
		return false
	}
	if o.n > 0 {
		e.fold(o.best, o.copies)
		e.n += o.n
	}
	return true
}

// AddFloat implements Func.
func (e *extremum) AddFloat(f float64) {
	e.fold(f, 1)
	e.n++
}

// AddFloats implements Func.
func (e *extremum) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			e.AddFloat(vals[o])
		}
	}
}

// Merge implements Func. Appending other's values in shard order
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

// AddFloat implements Func.
func (m *Median) AddFloat(f float64) {
	m.vals = append(m.vals, f)
	m.sorted = false
}

// AddFloats implements Func.
func (m *Median) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			m.vals = append(m.vals, vals[o])
		}
	}
	m.sorted = false
}
