package agg

import (
	"iter"
	"math"
	"sort"
)

// ResultWithoutFloats of every aggregate (the contract is on Func).

// ResultWithoutFloats implements Func. Count yields 0, not
// NULL, on empty input, matching Result.
func (c *count) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	return float64(c.n - len(vals)), true
}

// ResultWithoutFloats implements Func.
func (s *Sum) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
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
func (a *avg) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	sum, ok := a.Sum.ResultWithoutFloats(vals, nil)
	return sum / float64(a.n-len(vals)), ok
}

// ResultWithoutFloats implements Func.
func (v *variance) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	sum, sumsq, n := v.sum, v.sumsq, v.n
	for _, f := range vals {
		sum -= f
		sumsq -= f * f
	}
	n -= len(vals)
	return varianceFloat(sum, sumsq, n, v.sample)
}

// ResultWithoutFloats implements Func.
func (s *stddev) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	r, ok := s.variance.ResultWithoutFloats(vals, nil)
	return math.Sqrt(r), ok
}

// ResultWithoutFloats implements Func. It allocates nothing unless
// every copy of the extremum goes and kept must be read.
func (e *extremum) ResultWithoutFloats(vals []float64, kept iter.Seq[float64]) (float64, bool) {
	if e.n == 0 {
		return 0, false
	}
	gone := 0
	for _, f := range vals {
		if f == e.best {
			gone++
		}
	}
	return e.without(gone, kept)
}

// ResultWithoutFloats implements Func. It never mutates the receiver
// (no lazy sort of the shared slice): scoring workers call it
// concurrently on shared aggregate states. It filters into a local slice
// and sorts that instead, so it still reads m.vals — safe alongside
// Result() because exec.materialize calls Result() on every aggregate
// (sorting it) before any concurrent scoring starts.
func (m *median) ResultWithoutFloats(vals []float64, _ iter.Seq[float64]) (float64, bool) {
	drop := make(map[float64]int, len(vals))
	for _, f := range vals {
		drop[f]++
	}
	kept := make([]float64, 0, max(len(m.vals)-len(vals), 0))
	for _, f := range m.vals {
		if drop[f] > 0 {
			drop[f]--
			continue
		}
		kept = append(kept, f)
	}
	sort.Float64s(kept)
	return medianOfSorted(kept)
}
