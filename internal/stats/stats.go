// Package stats provides the small statistical utilities the experiment
// drivers share: empirical CDFs, histograms and seed derivation.
package stats

import (
	"errors"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied, then sorted).
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, errors.New("stats: empty sample set")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Min and Max return the extremes.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// Points returns (x, P(X<=x)) pairs suitable for plotting, one per sample.
func (c *CDF) Points() []Point {
	out := make([]Point, len(c.sorted))
	for i, v := range c.sorted {
		out[i] = Point{X: v, Y: float64(i+1) / float64(len(c.sorted))}
	}
	return out
}

// Point is one (x, y) sample of a series.
type Point struct{ X, Y float64 }

// Histogram counts integer-valued observations.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// AddN records n observations of value v.
func (h *Histogram) AddN(v, n int) {
	h.counts[v] += n
	h.total += n
}

// Fraction returns the fraction of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Values returns the observed values in ascending order.
func (h *Histogram) Values() []int {
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, n := range other.counts {
		h.counts[v] += n
	}
	h.total += other.total
}
