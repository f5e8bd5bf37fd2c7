package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleConvolveDirect is the plain double loop convolveDirectInto
// replaced, kept verbatim as the bit-identity oracle of the AXPY kernel
// (test files are outside the floateq check, so the zero skip carries no
// allow directive here).
func oracleConvolveDirect(out, a, b []float64) []float64 {
	for i := range out {
		out[i] = 0
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// oracleFit is the three-pass Thomas solve Spline.fit replaced (build
// every row, eliminate, back-substitute), kept verbatim as the
// bit-identity oracle of the fused sweep. It returns the second
// derivatives at the knots.
func oracleFit(x, y []float64) ([]float64, error) {
	n := len(x)
	if n != len(y) {
		return nil, fmt.Errorf("numeric: spline needs len(x)==len(y), got %d and %d", n, len(y))
	}
	if n < 2 {
		return nil, fmt.Errorf("numeric: spline needs at least 2 points, got %d", n)
	}
	for i := 1; i < n; i++ {
		if x[i] <= x[i-1] {
			return nil, fmt.Errorf("numeric: spline knots must be strictly increasing at index %d", i)
		}
	}
	m := make([]float64, n)
	if n == 2 {
		m[0], m[1] = 0, 0 // linear segment; second derivatives stay zero
		return m, nil
	}
	a, b, c, d := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	a[n-1], c[0], d[0], d[n-1] = 0, 0, 0, 0
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		hi := x[i] - x[i-1]
		hi1 := x[i+1] - x[i]
		a[i] = hi
		b[i] = 2 * (hi + hi1)
		c[i] = hi1
		d[i] = 6 * ((y[i+1]-y[i])/hi1 - (y[i]-y[i-1])/hi)
	}
	for i := 1; i < n; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		d[i] -= w * d[i-1]
	}
	m[n-1] = d[n-1] / b[n-1]
	for i := n - 2; i >= 0; i-- {
		m[i] = (d[i] - c[i]*m[i+1]) / b[i]
	}
	return m, nil
}

// sameBits fails unless got and want agree bit for bit (so -0 and 0,
// and distinct NaN payloads, differ).
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: diverges at %d: %v != %v", label, i, got[i], want[i])
		}
	}
}

// sparseVector draws n values of mixed sign and magnitude, about a
// quarter of them exactly 0 or -0 so the zero skip is exercised on both
// signed zeros.
func sparseVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return v
}

// knots draws an n-point strictly increasing grid with irregular gaps
// and values of mixed sign, with occasional exact zeros.
func knots(rng *rand.Rand, n int) (x, y []float64) {
	x = make([]float64, n)
	y = sparseVector(rng, n)
	acc := rng.NormFloat64()
	for i := range x {
		acc += 1e-3 + rng.Float64()*math.Pow(10, float64(rng.Intn(3)-1))
		x[i] = acc
	}
	return x, y
}

// The AXPY kernel must be bit-identical to the double loop over random
// shapes: either operand longer, length-1 operands, the work-grid sizes
// the evaluator produces, and signed zeros in both operands.
func TestConvolveDirectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{
		{1, 1}, {1, 9}, {9, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 7}, {7, 5},
		{64, 64}, {64, 257}, {257, 64}, {8192, 64}, {64, 8192}, {8192, 3},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	for _, sh := range shapes {
		a, b := sparseVector(rng, sh[0]), sparseVector(rng, sh[1])
		out := make([]float64, len(a)+len(b)-1)
		for i := range out {
			out[i] = math.NaN() // prior contents must be overwritten
		}
		want := oracleConvolveDirect(make([]float64, len(out)), a, b)
		sameBits(t, fmt.Sprint(sh), convolveDirectInto(out, a, b), want)
	}
}

// The fused sweep must reproduce the three-pass solve bit for bit,
// including n = 2 and 3, an 8192-point grid, and reuse of a scratch
// left over from a longer fit.
func TestSplineFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := &SplineScratch{}
	sp := &Spline{}
	sizes := []int{2, 3, 4, 5, 64, 258, 8192, 3, 2, 65}
	for trial := 0; trial < 40; trial++ {
		sizes = append(sizes, 2+rng.Intn(500))
	}
	for _, n := range sizes {
		x, y := knots(rng, n)
		want, err := oracleFit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Fit(x, y, ws); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("n=%d", n), sp.m, want)
	}
}

// FitPair must equal two Fit calls for systems of unequal lengths (in
// either order) and must report each system's error on its own: an
// invalid system leaves the other's fit intact.
func TestFitPairMatchesTwoFits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := &SplineScratch{}
	s1, s2 := &Spline{}, &Spline{}
	pairs := [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {64, 64}, {64, 258}, {258, 64}, {8192, 64}, {5, 8192}}
	for trial := 0; trial < 40; trial++ {
		pairs = append(pairs, [2]int{2 + rng.Intn(300), 2 + rng.Intn(300)})
	}
	for _, p := range pairs {
		x, y := knots(rng, p[0])
		u, v := knots(rng, p[1])
		want1, _ := oracleFit(x, y)
		want2, _ := oracleFit(u, v)
		err1, err2 := FitPair(s1, x, y, s2, u, v, ws)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v, %v", p, err1, err2)
		}
		sameBits(t, fmt.Sprintf("%v first", p), s1.m, want1)
		sameBits(t, fmt.Sprintf("%v second", p), s2.m, want2)
	}

	x, y := knots(rng, 40)
	want, _ := oracleFit(x, y)
	bad := []float64{0, 1, 1, 2} // not strictly increasing
	for _, badFirst := range []bool{true, false} {
		var errGood, errBad error
		good := &Spline{}
		if badFirst {
			errBad, errGood = FitPair(&Spline{}, bad, bad, good, x, y, ws)
		} else {
			errGood, errBad = FitPair(good, x, y, &Spline{}, bad, bad, ws)
		}
		if errBad == nil || errGood != nil {
			t.Fatalf("badFirst=%v: errors (good %v, bad %v), want only the invalid system to fail", badFirst, errGood, errBad)
		}
		sameBits(t, fmt.Sprintf("badFirst=%v valid system", badFirst), good.m, want)
	}
	if err, _ := FitPair(&Spline{}, x, y[:3], &Spline{}, x, y, ws); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

var sinkFloats []float64

func BenchmarkConvolveDirect(b *testing.B) {
	for _, sh := range [][2]int{{8192, 64}, {256, 8}} {
		rng := rand.New(rand.NewSource(1))
		x, y := sparseVector(rng, sh[0]), sparseVector(rng, sh[1])
		out := make([]float64, sh[0]+sh[1]-1)
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for b.Loop() {
				sinkFloats = convolveDirectInto(out, x, y)
			}
		})
	}
}

func BenchmarkSplineFit(b *testing.B) {
	for _, n := range []int{64, 258, 8192} {
		x, y := knots(rand.New(rand.NewSource(2)), n)
		ws, sp := &SplineScratch{}, &Spline{}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for b.Loop() {
				_ = sp.Fit(x, y, ws)
			}
			sinkFloats = sp.m
		})
	}
}

// BenchmarkFitPair fits two n-point systems per iteration; compare with
// twice BenchmarkSplineFit at the same n.
func BenchmarkFitPair(b *testing.B) {
	for _, n := range []int{64, 258, 8192} {
		rng := rand.New(rand.NewSource(3))
		x, y := knots(rng, n)
		u, v := knots(rng, n)
		ws, s1, s2 := &SplineScratch{}, &Spline{}, &Spline{}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for b.Loop() {
				_, _ = FitPair(s1, x, y, s2, u, v, ws)
			}
			sinkFloats = s2.m
		})
	}
}
