package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	if got := len(c.Points()); got != 4 {
		t.Errorf("%d points, want 4", got)
	}
	if got := c.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if c.Min() != 1 || c.Max() != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", c.Min(), c.Max())
	}
}

func TestCDFQuantile(t *testing.T) {
	c, _ := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tests := []struct {
		q, want float64
	}{
		{q: 0, want: 10},
		{q: 0.1, want: 10},
		{q: 0.5, want: 50},
		{q: 0.9, want: 90},
		{q: 1, want: 100},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Error("NewCDF(nil) succeeded")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c, _ := NewCDF(in)
	in[0] = -100
	if c.Min() != 1 {
		t.Error("CDF aliased its input slice")
	}
}

func TestCDFPointsMonotonicQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		c, err := NewCDF(samples)
		if err != nil {
			return false
		}
		pts := c.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
				return false
			}
		}
		return pts[len(pts)-1].Y == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.AddN(2, 2)
	h.AddN(3, 3)
	h.AddN(10, 1)
	for v, want := range map[int]float64{2: 2.0 / 6, 3: 0.5, 10: 1.0 / 6, 5: 0} {
		if got := h.Fraction(v); got != want {
			t.Errorf("Fraction(%d) = %v, want %v", v, got, want)
		}
	}
	vals := h.Values()
	if len(vals) != 3 || vals[0] != 2 || vals[1] != 3 || vals[2] != 10 {
		t.Errorf("Values = %v, want [2 3 10]", vals)
	}

	h2 := NewHistogram()
	h2.AddN(2, 1)
	h.Merge(h2)
	if got := h.Fraction(2); got != 3.0/7 {
		t.Errorf("Fraction(2) after Merge = %v, want 3/7", got)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	if got := NewHistogram().Fraction(1); got != 0 {
		t.Errorf("empty Fraction = %v, want 0", got)
	}
}
