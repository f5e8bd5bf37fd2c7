package numeric

import (
	"math"
	"testing"
)

func TestSimpsonUniformPolynomial(t *testing.T) {
	// Simpson is exact for cubics.
	n := 65
	h := 1.0 / float64(n-1)
	y := make([]float64, n)
	for i := range y {
		x := float64(i) * h
		y[i] = x*x*x - 2*x + 1
	}
	want := 0.25 - 1.0 + 1.0 // integral over [0,1]
	if got := SimpsonUniform(y, h); !almostEqual(got, want, 1e-12) {
		t.Errorf("Simpson cubic = %g, want %g", got, want)
	}
}

func TestSimpsonUniformOddIntervals(t *testing.T) {
	// 4 points = 3 intervals: Simpson + trailing trapezoid.
	y := []float64{0, 1, 2, 3} // f(x)=x on grid h=1, integral over [0,3] = 4.5
	if got := SimpsonUniform(y, 1); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("Simpson linear odd = %g, want 4.5", got)
	}
}

func TestSimpsonUniformSmall(t *testing.T) {
	if got := SimpsonUniform([]float64{5}, 1); got != 0 {
		t.Errorf("single sample = %g, want 0", got)
	}
	if got := SimpsonUniform([]float64{1, 3}, 2); !almostEqual(got, 4, 1e-12) {
		t.Errorf("two samples = %g, want 4", got)
	}
}

func TestSimpsonSinAccuracy(t *testing.T) {
	n := 129
	h := math.Pi / float64(n-1)
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(float64(i) * h)
	}
	if got := SimpsonUniform(y, h); !almostEqual(got, 2, 1e-8) {
		t.Errorf("Simpson sin = %g, want 2", got)
	}
}

func TestTrapezoidUniform(t *testing.T) {
	y := []float64{0, 1, 2, 3}
	if got := TrapezoidUniform(y, 1); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("trapezoid = %g, want 4.5", got)
	}
	if got := TrapezoidUniform([]float64{1}, 1); got != 0 {
		t.Errorf("trapezoid single = %g, want 0", got)
	}
}

func TestCumTrapezoid(t *testing.T) {
	y := []float64{1, 1, 1, 1}
	cum := CumTrapezoid(y, 0.5)
	want := []float64{0, 0.5, 1.0, 1.5}
	for i := range want {
		if !almostEqual(cum[i], want[i], 1e-12) {
			t.Errorf("cum[%d] = %g, want %g", i, cum[i], want[i])
		}
	}
}
