package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. Nearest rank never interpolates, so a reported p95 is
// always a latency some request actually had. vals need not be sorted;
// an empty sample yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile of
// vals as Python's statistics.quantiles(vals, n=4) computes them (the
// default "exclusive" method), because that is the rule the acceptance
// check applies to this benchmark's own runs. Fewer than two values
// return the single value (or 0) three times.
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of the three cut points, i = 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j // outside [0,4] when j was clamped: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// share is num/den, with 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}
