package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplineErrors(t *testing.T) {
	if _, err := NewSpline([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := NewSpline([]float64{0}, []float64{0}); err == nil {
		t.Error("accepted single point")
	}
	if _, err := NewSpline([]float64{0, 0, 1}, []float64{0, 1, 2}); err == nil {
		t.Error("accepted non-increasing knots")
	}
}

func TestSplineInterpolatesKnots(t *testing.T) {
	x := []float64{0, 1, 2.5, 4, 7}
	y := []float64{1, -1, 3, 0, 2}
	s, err := NewSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := s.At(x[i]); !almostEqual(got, y[i], 1e-12) {
			t.Errorf("At(%g) = %g, want %g", x[i], got, y[i])
		}
	}
}

func TestSplineLinearExact(t *testing.T) {
	// A natural spline through collinear points reproduces the line.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9}
	s, err := NewSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, xt := range []float64{0.25, 1.5, 3.9} {
		if got := s.At(xt); !almostEqual(got, 1+2*xt, 1e-10) {
			t.Errorf("At(%g) = %g, want %g", xt, got, 1+2*xt)
		}
	}
}

func TestSplineTwoPoints(t *testing.T) {
	s, err := NewSpline([]float64{0, 2}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1); !almostEqual(got, 2, 1e-12) {
		t.Errorf("two-point spline At(1) = %g, want 2", got)
	}
}

func TestSplineSmoothFunctionAccuracy(t *testing.T) {
	// 64 knots over one sine period: interpolation error should be tiny.
	n := 64
	x := Linspace(0, 2*math.Pi, n)
	y := make([]float64, n)
	for i := range x {
		y[i] = math.Sin(x[i])
	}
	s, err := NewSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xt := rng.Float64() * 2 * math.Pi
		if got := s.At(xt); !almostEqual(got, math.Sin(xt), 1e-4) {
			t.Fatalf("At(%g) = %g, want %g", xt, got, math.Sin(xt))
		}
	}
}

func TestSplineExtrapolation(t *testing.T) {
	s, err := NewSpline([]float64{0, 1, 2}, []float64{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(-1); got != 0 {
		t.Errorf("zero left = %g, want 0", got)
	}
	if got := s.At(3); got != 0 {
		t.Errorf("zero right = %g, want 0", got)
	}
	// Boundary knots themselves still evaluate to their values.
	if got := s.At(0); got != 5 {
		t.Errorf("boundary At(0) = %g, want 5", got)
	}
	if got := s.At(2); got != 7 {
		t.Errorf("boundary At(2) = %g, want 7", got)
	}
}

func TestSplineResample(t *testing.T) {
	s, err := NewSpline([]float64{0, 1}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Resample(0, 1, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-10) {
			t.Errorf("resample[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if one := s.Resample(0.5, 0.5, 1); len(one) != 1 || !almostEqual(one[0], 5, 1e-10) {
		t.Errorf("resample n=1 = %v, want [5]", one)
	}
}
