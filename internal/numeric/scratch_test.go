package numeric

import (
	"math/rand"
	"testing"
)

// convolve is ConvolveInto on a fresh output and scratch; nil for an
// empty operand.
func convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return ConvolveInto(make([]float64, len(a)+len(b)-1), a, b, &ConvScratch{})
}

// ConvolveInto must give the same bits with a reused scratch as with a
// fresh one — the evaluation layer's workspaces rely on it.
func TestConvolveIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{
		{5, 5}, {64, 64}, {64, 5}, {500, 64}, {1000, 3},
		{4096, 16}, {4096, 200}, {300, 300}, {1, 1}, {2, 7},
	}
	ws := &ConvScratch{} // reused across shapes to exercise staleness
	for _, sh := range shapes {
		a := make([]float64, sh[0])
		b := make([]float64, sh[1])
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		want := convolve(a, b)
		got := ConvolveInto(make([]float64, len(a)+len(b)-1), a, b, ws)
		if len(got) != len(want) {
			t.Fatalf("%v: length %d != %d", sh, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: ConvolveInto diverges at %d: %g != %g", sh, i, got[i], want[i])
			}
		}
	}
}

// Spline.Fit must reproduce NewSpline bit-for-bit while borrowing the
// knot slices and reusing scratch.
func TestSplineFitMatchesNewSpline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := &SplineScratch{}
	sp := &Spline{}
	// Sizes deliberately shrink after growing: a refit over a shorter
	// knot set must not read stale scratch from a longer one.
	for _, n := range []int{2, 3, 5, 64, 1000, 64, 7, 2, 333} {
		x := make([]float64, n)
		y := make([]float64, n)
		acc := 0.0
		for i := range x {
			acc += 0.1 + rng.Float64()
			x[i] = acc
			y[i] = rng.NormFloat64()
		}
		want, err := NewSpline(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Fit(x, y, ws); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			at := x[0] - 0.5 + rng.Float64()*(x[n-1]-x[0]+1)
			if g, w := sp.At(at), want.At(at); g != w {
				t.Fatalf("n=%d: Fit spline diverges at %g: %g != %g", n, at, g, w)
			}
		}
	}
}

// ResampleInto's forward segment walk must agree with per-point At
// (which is what Resample used to do), including at and beyond the knot
// boundaries.
func TestResampleWalkMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 64)
	y := make([]float64, 64)
	acc := 0.0
	for i := range x {
		acc += 0.2 + rng.Float64()
		x[i] = acc
		y[i] = rng.Float64()
	}
	sp, err := NewSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]float64{
		{x[0], x[63]},
		{x[0] - 1, x[63] + 1},
		{x[10], x[20]},
		{x[5] - 0.3, x[5] + 0.3},
	} {
		for _, n := range []int{1, 2, 7, 333} {
			got := sp.Resample(span[0], span[1], n)
			step := 0.0
			if n > 1 {
				step = (span[1] - span[0]) / float64(n-1)
			}
			for i, g := range got {
				if w := sp.At(span[0] + float64(i)*step); g != w {
					t.Fatalf("span=%v n=%d: walk diverges at %d: %g != %g", span, n, i, g, w)
				}
			}
		}
	}
}
