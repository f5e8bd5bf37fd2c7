package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleConvolveDirect is the plain double loop, kept verbatim as the
// bit-identity oracle of ConvolveInto (test files are outside the
// floateq check, so the zero skip carries no allow directive here).
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

// poison fills every buffer of ws up to its capacity with NaN, so a
// read of a window or coefficient element the kernel did not write in
// this call shows in its output.
func poison(ws *ConvScratch) {
	for _, buf := range [][]float64{ws.win[:cap(ws.win)], ws.coef[:cap(ws.coef)]} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
}

// ConvolveInto must be bit-identical to the double loop over random
// shapes: either operand longer, length-1 operands, output lengths on
// either side of one and two dotBlock passes with a much shorter a or b,
// the work-grid sizes the evaluator produces, both operands long (as
// Fig. 8's 128-point sums and grids up to 256 points make them), and
// signed zeros in both operands. One ConvScratch serves every shape and
// is poisoned first.
func TestConvolveDirectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{
		{1, 1}, {1, 9}, {9, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 7}, {7, 5},
		{64, 64}, {64, 257}, {257, 64}, {8192, 64}, {64, 8192}, {8192, 3},
		{97, 97}, {128, 128}, {200, 97}, {97, 200}, {3840, 128}, {8192, 97}, {8192, 256},
	}
	for _, n := range []int{11, 12, 13, 23, 24, 25} {
		for short := 1; short <= 3; short++ {
			shapes = append(shapes, [2]int{short, n + 1 - short}, [2]int{n + 1 - short, short})
		}
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	ws := &ConvScratch{}
	for _, sh := range shapes {
		a, b := sparseVector(rng, sh[0]), sparseVector(rng, sh[1])
		out := make([]float64, len(a)+len(b)-1)
		for i := range out {
			out[i] = math.NaN() // prior contents must be overwritten
		}
		poison(ws)
		want := oracleConvolveDirect(make([]float64, len(out)), a, b)
		sameBits(t, fmt.Sprint(sh), ConvolveInto(out, a, b, ws), want)
	}
}

// finiteVector draws like sparseVector, except that one value in eight
// is an arbitrary finite bit pattern: subnormals, and magnitudes whose
// products overflow to ±Inf and whose sums then reach NaN.
func finiteVector(rng *rand.Rand, n int) []float64 {
	v := sparseVector(rng, n)
	for i := range v {
		if rng.Intn(8) != 0 {
			continue
		}
		for {
			v[i] = math.Float64frombits(rng.Uint64())
			if !math.IsNaN(v[i]) && !math.IsInf(v[i], 0) {
				break
			}
		}
	}
	return v
}

// FuzzConvolveDirect checks ConvolveInto against the double loop bit
// for bit on finite operands of 1 to 600 elements each.
func FuzzConvolveDirect(f *testing.F) {
	f.Add(uint16(0), uint16(0), int64(1))
	f.Add(uint16(10), uint16(1), int64(2))
	f.Add(uint16(1), uint16(22), int64(3))
	f.Add(uint16(63), uint16(599), int64(4))
	f.Add(uint16(599), uint16(95), int64(5))
	f.Fuzz(func(t *testing.T, la, lb uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		a := finiteVector(rng, 1+int(la)%600)
		b := finiteVector(rng, 1+int(lb)%600)
		want := oracleConvolveDirect(make([]float64, len(a)+len(b)-1), a, b)
		sameBits(t, fmt.Sprint(len(a), len(b)), convolve(a, b), want)
	})
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
	for _, sh := range [][2]int{{8192, 64}, {64, 8192}, {256, 8}, {3840, 128}, {8192, 97}, {8192, 256}} {
		rng := rand.New(rand.NewSource(1))
		x, y := sparseVector(rng, sh[0]), sparseVector(rng, sh[1])
		out := make([]float64, sh[0]+sh[1]-1)
		ws := &ConvScratch{}
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for b.Loop() {
				sinkFloats = ConvolveInto(out, x, y, ws)
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
