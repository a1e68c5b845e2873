package agg

// AddFloat, AddFloats and Merge of every aggregate (the contract is on
// Func). Each AddFloats is its own loop, so the per-value fold is a
// direct call, not one through the interface.

// Merge implements Func.
func (c *count) Merge(other Func) bool {
	o, ok := other.(*count)
	if !ok {
		return false
	}
	c.n += o.n
	return true
}

// AddFloat implements Func.
func (c *count) AddFloat(float64) { c.n++ }

// AddFloats implements Func.
func (c *count) AddFloats(_ []float64, null []uint64, sel []int32) {
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

// Merge implements Func. A Sum is not an avg state: it is refused.
func (a *avg) Merge(other Func) bool {
	o, ok := other.(*avg)
	return ok && a.Sum.Merge(&o.Sum)
}

// mergeFrom folds another variance state of the same sample kind in,
// shared by variance and the embedding stddev; it refuses the other kind.
func (v *variance) mergeFrom(o *variance) bool {
	if o.sample != v.sample {
		return false
	}
	v.sum += o.sum
	v.sumsq += o.sumsq
	v.n += o.n
	return true
}

// Merge implements Func.
func (v *variance) Merge(other Func) bool {
	o, ok := other.(*variance)
	return ok && v.mergeFrom(o)
}

// AddFloat implements Func.
func (v *variance) AddFloat(f float64) {
	v.sum += f
	v.sumsq += f * f
	v.n++
}

// AddFloats implements Func (and, embedded, for stddev).
func (v *variance) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			v.AddFloat(vals[o])
		}
	}
}

// Merge implements Func. stddev states only merge with stddev states
// (the embedded variance.Merge would reject them).
func (s *stddev) Merge(other Func) bool {
	o, ok := other.(*stddev)
	return ok && s.mergeFrom(&o.variance)
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

// Merge implements Func. Appending other's values in row order
// reproduces the sequential scan's multiset (order is irrelevant after
// the sort, but keeping it makes the merged state bit-identical).
func (m *median) Merge(other Func) bool {
	o, ok := other.(*median)
	if !ok {
		return false
	}
	m.vals = append(m.vals, o.vals...)
	m.sorted = false
	return true
}

// AddFloat implements Func.
func (m *median) AddFloat(f float64) {
	m.vals = append(m.vals, f)
	m.sorted = false
}

// AddFloats implements Func.
func (m *median) AddFloats(vals []float64, null []uint64, sel []int32) {
	for _, o := range sel {
		if !isNull(null, o) {
			m.vals = append(m.vals, vals[o])
		}
	}
	m.sorted = false
}
