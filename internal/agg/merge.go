package agg

// AddFloat and Merge of every aggregate (the contract is on Func).

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

// AddFloat implements Func.
func (e *extremum) AddFloat(f float64) {
	e.counts[f]++
	if !e.haveAny || e.displaces(f, e.best) {
		e.best = f
		e.haveAny = true
	}
	e.n++
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
