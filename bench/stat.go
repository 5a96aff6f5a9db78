package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample; 0 for an empty one or for p = 0, which is what
// topPercentile returns when the sample supports none.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 || p == 0 {
		return 0
	}
	return asc[max(0, min(rank(p, len(asc))-1, len(asc)-1))]
}

// rank is the nearest-rank position, from 1, of the p-th percentile among
// n samples. The small allowance keeps 99.9% of 10 000 at 9 990.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// reportable are the percentiles the benchmark may quote, ascending.
var reportable = []float64{50, 90, 95, 99, 99.9}

// topPercentile is the highest reportable percentile that still has at
// least ten of n samples beyond it, or 0 when not even the median has.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range reportable {
		// The count beyond the nearest-rank p-th percentile of n samples.
		if n-rank(p, n) >= 10 {
			top = p
		}
	}
	return top
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the exclusive method), which is how the benchmark contract takes the
// spread of a set of runs. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
