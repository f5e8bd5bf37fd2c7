package stochastic

import (
	"math"
	"math/rand"
	"testing"
)

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 4})
	if e.Len() != 4 || e.Min() != 1 || e.Max() != 4 {
		t.Error("basic stats wrong")
	}
	if !almostEqual(e.Mean(), 2.5, 1e-12) {
		t.Errorf("mean = %g, want 2.5", e.Mean())
	}
	if !almostEqual(e.Variance(), 1.25, 1e-12) {
		t.Errorf("variance = %g, want 1.25", e.Variance())
	}
}

func TestEmpiricalCDF(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := e.CDFAt(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestEmpiricalQuantile(t *testing.T) {
	e := NewEmpirical([]float64{10, 20, 30, 40, 50})
	if e.Quantile(0.5) != 30 {
		t.Errorf("median = %g, want 30", e.Quantile(0.5))
	}
	if e.Quantile(0) != 10 || e.Quantile(1) != 50 {
		t.Error("extreme quantiles wrong")
	}
}

func TestEmpiricalToNumericRecoversMoments(t *testing.T) {
	b := NewBetaUL(10, 1.5)
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = b.Sample(rng)
	}
	e := NewEmpirical(samples)
	rv := e.ToNumeric(64)
	if !almostEqual(rv.Mean(), b.Mean(), 0.03) {
		t.Errorf("histogram mean = %g, want %g", rv.Mean(), b.Mean())
	}
	if !almostEqual(rv.StdDev(), math.Sqrt(b.Variance()), 0.05) {
		t.Errorf("histogram stddev = %g, want %g", rv.StdDev(), math.Sqrt(b.Variance()))
	}
}

func TestEmpiricalDegenerate(t *testing.T) {
	if !NewEmpirical([]float64{5, 5, 5}).ToNumeric(64).IsPoint() {
		t.Error("constant samples should convert to a point")
	}
	if NewEmpirical(nil).ToNumeric(64).Lo() != 0 {
		t.Error("empty empirical should convert to point 0")
	}
	if NewEmpirical(nil).CDFAt(1) != 0 {
		t.Error("empty CDF should be 0")
	}
}
