package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestConvolveDirectKnown(t *testing.T) {
	got := convolve([]float64{1, 2, 3}, []float64{4, 5})
	want := []float64{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("conv[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if ConvolveInto(nil, []float64{1}, nil, &ConvScratch{}) != nil {
		t.Error("expected nil for an empty operand")
	}
}

// Property: convolution preserves total mass (sum of product of sums).
func TestConvolveMassProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		a := make([]float64, 1+rngA.Intn(100))
		b := make([]float64, 1+rngB.Intn(100))
		var sa, sb float64
		for i := range a {
			a[i] = rngA.Float64()
			sa += a[i]
		}
		for i := range b {
			b[i] = rngB.Float64()
			sb += b[i]
		}
		c := convolve(a, b)
		return almostEqual(KahanSum(c), sa*sb, 1e-6*(1+sa*sb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
