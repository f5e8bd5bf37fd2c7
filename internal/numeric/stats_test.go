package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKahanSumCancellations(t *testing.T) {
	// 1 + tiny added many times: naive summation loses the tinies.
	xs := make([]float64, 0, 1_000_001)
	xs = append(xs, 1)
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, 1e-16)
	}
	got := KahanSum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("KahanSum = %.18g, want %.18g", got, want)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestVarianceShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			shifted[i] = xs[i] + 1e3
		}
		return almostEqual(Variance(xs), Variance(shifted), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(y, 1)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("ma[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	got = MovingAverage(y, 0)
	for i := range y {
		if got[i] != y[i] {
			t.Errorf("halfWidth=0 should copy; ma[%d]=%g", i, got[i])
		}
	}
}

func TestMovingAveragePreservesConstant(t *testing.T) {
	y := []float64{3, 3, 3, 3, 3, 3}
	got := MovingAverage(y, 2)
	for i := range got {
		if !almostEqual(got[i], 3, 1e-12) {
			t.Errorf("constant smoothing changed value at %d: %g", i, got[i])
		}
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if got[len(got)-1] != 1 {
		t.Error("last point must be exactly hi")
	}
	if one := Linspace(2, 9, 1); len(one) != 1 || one[0] != 2 {
		t.Errorf("Linspace n=1 = %v, want [2]", one)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
