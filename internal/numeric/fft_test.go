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

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {63, 64}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTLengthErrors(t *testing.T) {
	if err := FFT(make([]float64, 3), make([]float64, 3), false); err == nil {
		t.Error("FFT accepted non-power-of-two length")
	}
	if err := FFT(make([]float64, 4), make([]float64, 2), false); err == nil {
		t.Error("FFT accepted mismatched lengths")
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is all ones.
	re := []float64{1, 0, 0, 0}
	im := make([]float64, 4)
	if err := FFT(re, im, false); err != nil {
		t.Fatal(err)
	}
	for i := range re {
		if !almostEqual(re[i], 1, 1e-12) || !almostEqual(im[i], 0, 1e-12) {
			t.Errorf("impulse FFT bin %d = (%g,%g), want (1,0)", i, re[i], im[i])
		}
	}
	// DFT of constant signal concentrates in bin 0.
	re = []float64{2, 2, 2, 2}
	im = make([]float64, 4)
	if err := FFT(re, im, false); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(re[0], 8, 1e-12) {
		t.Errorf("constant FFT bin0 = %g, want 8", re[0])
	}
	for i := 1; i < 4; i++ {
		if !almostEqual(re[i], 0, 1e-12) || !almostEqual(im[i], 0, 1e-12) {
			t.Errorf("constant FFT bin %d = (%g,%g), want 0", i, re[i], im[i])
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 256} {
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			orig[i] = re[i]
		}
		if err := FFT(re, im, false); err != nil {
			t.Fatal(err)
		}
		if err := FFT(re, im, true); err != nil {
			t.Fatal(err)
		}
		for i := range re {
			if !almostEqual(re[i], orig[i], 1e-9) || !almostEqual(im[i], 0, 1e-9) {
				t.Fatalf("n=%d: round trip [%d] = (%g,%g), want (%g,0)", n, i, re[i], im[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 128
	re := make([]float64, n)
	im := make([]float64, n)
	var timeEnergy float64
	for i := range re {
		re[i] = rng.Float64() - 0.5
		timeEnergy += re[i] * re[i]
	}
	if err := FFT(re, im, false); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for i := range re {
		freqEnergy += re[i]*re[i] + im[i]*im[i]
	}
	freqEnergy /= float64(n)
	if !almostEqual(timeEnergy, freqEnergy, 1e-9) {
		t.Errorf("Parseval violated: time %g vs freq %g", timeEnergy, freqEnergy)
	}
}

func TestConvolveDirectKnown(t *testing.T) {
	got := ConvolveDirect([]float64{1, 2, 3}, []float64{4, 5})
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
	if ConvolveDirect(nil, []float64{1}) != nil {
		t.Error("direct: expected nil for empty input")
	}
	if ConvolveFFT(nil, []float64{1}) != nil {
		t.Error("fft: expected nil for empty input")
	}
	if ConvolveOverlapAdd(nil, []float64{1}) != nil {
		t.Error("overlap-add: expected nil for empty input")
	}
	if ConvolveInto(nil, []float64{1}, nil, &ConvScratch{}) != nil {
		t.Error("auto: expected nil for empty input")
	}
}

// Property: all convolution implementations agree with the direct one.
func TestConvolveImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		la := 1 + rng.Intn(200)
		lb := 1 + rng.Intn(60)
		a := make([]float64, la)
		b := make([]float64, lb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := ConvolveDirect(a, b)
		for name, got := range map[string][]float64{
			"fft":         ConvolveFFT(a, b),
			"overlap-add": ConvolveOverlapAdd(a, b),
			"auto":        convolve(a, b),
		} {
			if len(got) != len(ref) {
				t.Fatalf("%s: length %d, want %d", name, len(got), len(ref))
			}
			for i := range ref {
				if !almostEqual(got[i], ref[i], 1e-8) {
					t.Fatalf("%s trial %d: conv[%d] = %g, want %g", name, trial, i, got[i], ref[i])
				}
			}
		}
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

// The block is NextPow2(4·len(kernel)): against a 300-point signal the
// kernel lengths below give blocks of 4, 16, 128, 256 and 512 points,
// covering many blocks, a partial last block, and one block longer
// than the signal.
func TestConvolveOverlapAddBlockSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for _, kl := range []int{1, 3, 17, 64, 100} {
		b := make([]float64, kl)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := ConvolveDirect(a, b)
		got := ConvolveOverlapAdd(a, b)
		for i := range ref {
			if !almostEqual(got[i], ref[i], 1e-8) {
				t.Fatalf("kernel length %d: conv[%d] = %g, want %g", kl, i, got[i], ref[i])
			}
		}
	}
}

func TestConvolveKernelLongerThanSignal(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 5, 6, 7}
	ref := ConvolveDirect(a, b)
	got := ConvolveOverlapAdd(a, b)
	for i := range ref {
		if !almostEqual(got[i], ref[i], 1e-9) {
			t.Fatalf("conv[%d] = %g, want %g", i, got[i], ref[i])
		}
	}
}
