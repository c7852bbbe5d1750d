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

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by linear interpolation between the two nearest ranks; NaN when empty.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sorted(v)[0]
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the benchmark contract's spread is
// computed with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// quietWindows takes the median of every non-empty window and returns the
// lower decile of those medians, and the medians. Interference on a shared
// box only ever adds latency, so the quietest windows are the better
// estimate of what the program itself costs; the whole-run percentiles are
// reported beside it. A decile, not a quartile: on serve-growth the
// pipeline alternates between a fast and a slow regime as its table grows
// (window medians of 0.63 or 1.05 ms, little in between), and when fewer
// than a quarter of the windows are fast ones the quartile lands between
// the two. NaN when every window is empty.
func quietWindows(windows [][]float64) (decile float64, p50s []float64) {
	for _, w := range windows {
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	return percentile(sorted(p50s), 0.1), p50s
}
