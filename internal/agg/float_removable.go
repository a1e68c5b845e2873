package agg

import "math"

// ResultWithoutFloats of every aggregate (the contract is on Func).

// ResultWithoutFloats implements Func. Count yields 0, not
// NULL, on empty input, matching Result.
func (c *Count) ResultWithoutFloats(vals []float64) (float64, bool) {
	return float64(c.n - len(vals)), true
}

// ResultWithoutFloats implements Func.
func (s *Sum) ResultWithoutFloats(vals []float64) (float64, bool) {
	sum, n := s.sum, s.n
	for _, f := range vals {
		sum -= f
	}
	n -= len(vals)
	if n <= 0 {
		return 0, false
	}
	return sum, true
}

// ResultWithoutFloats implements Func.
func (a *Avg) ResultWithoutFloats(vals []float64) (float64, bool) {
	sum, n := a.sum, a.n
	for _, f := range vals {
		sum -= f
	}
	n -= len(vals)
	if n <= 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// varianceFloat mirrors varianceOf without boxing.
func varianceFloat(sum, sumsq float64, n int, sample bool) (float64, bool) {
	minN := 1
	if sample {
		minN = 2
	}
	if n < minN {
		return 0, false
	}
	mean := sum / float64(n)
	ss := sumsq - float64(n)*mean*mean
	if ss < 0 {
		ss = 0 // numeric guard
	}
	den := float64(n)
	if sample {
		den = float64(n - 1)
	}
	return ss / den, true
}

// ResultWithoutFloats implements Func.
func (v *Variance) ResultWithoutFloats(vals []float64) (float64, bool) {
	sum, sumsq, n := v.sum, v.sumsq, v.n
	for _, f := range vals {
		sum -= f
		sumsq -= f * f
	}
	n -= len(vals)
	return varianceFloat(sum, sumsq, n, v.sample)
}

// ResultWithoutFloats implements Func.
func (s *Stddev) ResultWithoutFloats(vals []float64) (float64, bool) {
	r, ok := s.Variance.ResultWithoutFloats(vals)
	if !ok {
		return 0, false
	}
	return math.Sqrt(r), true
}

// ResultWithoutFloats implements Func. The common case — no
// removed value ties the current extremum, or surviving copies remain —
// is alloc-free; only the rare full rescan builds a delta map.
func (e *extremum) ResultWithoutFloats(vals []float64) (float64, bool) {
	if !e.haveAny {
		return 0, false
	}
	removedBest := 0
	for _, f := range vals {
		if f == e.best {
			removedBest++
		}
	}
	if removedBest < e.counts[e.best] {
		return e.best, true // a copy of the extremum survives
	}
	delta := make(map[float64]int, len(vals))
	for _, f := range vals {
		delta[f]++
	}
	best, have := e.rescan(delta)
	if !have {
		return 0, false
	}
	return best, true
}

// ResultWithoutFloats implements Func. Like ResultWithoutSet
// it never mutates the receiver (no lazy sort of the shared slice):
// scoring workers call it concurrently on shared aggregate states.
func (m *Median) ResultWithoutFloats(vals []float64) (float64, bool) {
	drop := make(map[float64]int, len(vals))
	for _, f := range vals {
		drop[f]++
	}
	v := m.withoutSorted(drop, len(vals))
	if v.IsNull() {
		return 0, false
	}
	return v.Float(), true
}
