package stochastic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// checkMoments draws n samples and compares their mean and variance
// with the analytic values.
func checkMoments(t *testing.T, name string, sample func(*rand.Rand) float64, wantMean, wantVar float64, n int, meanTol, varTol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := sample(rng)
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if !almostEqual(mean, wantMean, meanTol) {
		t.Errorf("%s: sample mean %g vs analytic %g", name, mean, wantMean)
	}
	if !almostEqual(variance, wantVar, varTol) {
		t.Errorf("%s: sample variance %g vs analytic %g", name, variance, wantVar)
	}
}

// checkCDFMatchesSamples verifies the analytic CDF against the empirical
// CDF at several quantile points.
func checkCDFMatchesSamples(t *testing.T, name string, d Dist, n int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	emp := NewEmpirical(samples)
	lo, hi := d.Support()
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := lo + frac*(hi-lo)
		if got, want := d.CDF(x), emp.CDFAt(x); !almostEqual(got, want, tol) {
			t.Errorf("%s: CDF(%g) = %g vs empirical %g", name, x, got, want)
		}
	}
}

func TestDirac(t *testing.T) {
	d := Dirac{Value: 3}
	if d.Mean() != 3 || d.Variance() != 0 {
		t.Error("Dirac moments wrong")
	}
	if d.CDF(2.999) != 0 || d.CDF(3) != 1 || d.CDF(4) != 1 {
		t.Error("Dirac CDF wrong")
	}
	if d.Sample(rand.New(rand.NewSource(1))) != 3 {
		t.Error("Dirac sample wrong")
	}
	lo, hi := d.Support()
	if lo != 3 || hi != 3 {
		t.Error("Dirac support wrong")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 6}
	if !almostEqual(u.Mean(), 4, 1e-12) || !almostEqual(u.Variance(), 16.0/12, 1e-12) {
		t.Error("Uniform moments wrong")
	}
	if !almostEqual(u.PDF(3), 0.25, 1e-12) || u.PDF(7) != 0 {
		t.Error("Uniform PDF wrong")
	}
	if !almostEqual(u.CDF(4), 0.5, 1e-12) {
		t.Error("Uniform CDF wrong")
	}
	checkMoments(t, "uniform", u.Sample, u.Mean(), u.Variance(), 200000, 0.02, 0.03)
}

func TestNormal(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	if !almostEqual(n.CDF(10), 0.5, 1e-12) {
		t.Error("Normal CDF(mu) != 0.5")
	}
	if !almostEqual(n.CDF(12)-n.CDF(8), 0.6826894921, 1e-6) {
		t.Error("Normal 1-sigma mass wrong")
	}
	if !almostEqual(n.PDF(10), 1/(2*math.Sqrt(2*math.Pi)), 1e-12) {
		t.Error("Normal PDF(mu) wrong")
	}
	checkMoments(t, "normal", n.Sample, n.Mean(), n.Variance(), 200000, 0.03, 0.05)
	checkCDFMatchesSamples(t, "normal", n, 100000, 0.01)
}

// GammaFromMeanCV sets Alpha = 1/V² and Theta = mean·V², and Sample
// draws the moments Alpha·Theta and Alpha·Theta², through the boost
// step when Alpha < 1 too.
func TestGammaFromMeanCV(t *testing.T) {
	if g := GammaFromMeanCV(20, 0.5); !almostEqual(g.Alpha, 4, 1e-12) || !almostEqual(g.Theta, 5, 1e-12) {
		t.Errorf("GammaFromMeanCV(20, 0.5) = %+v, want Alpha 4, Theta 5", g)
	}
	for _, g := range []Gamma{{Alpha: 0.5, Theta: 2}, {Alpha: 1, Theta: 1}, {Alpha: 4, Theta: 5}, {Alpha: 9, Theta: 0.5}} {
		mean, variance := g.Alpha*g.Theta, g.Alpha*g.Theta*g.Theta
		checkMoments(t, fmt.Sprintf("gamma %+v", g), g.Sample, mean, variance, 200000, 0.05*mean+0.02, 0.08*variance+0.05)
	}
}

func TestBetaMomentsPDFCDF(t *testing.T) {
	b := Beta{Lo: 0, Hi: 1}
	if !almostEqual(b.Mean(), 2.0/7, 1e-12) {
		t.Errorf("Beta mean = %g, want %g", b.Mean(), 2.0/7)
	}
	wantVar := 2.0 * 5 / (49 * 8)
	if !almostEqual(b.Variance(), wantVar, 1e-12) {
		t.Errorf("Beta variance = %g, want %g", b.Variance(), wantVar)
	}
	// PDF integrates to 1.
	var sum float64
	n := 20001
	h := 1.0 / float64(n-1)
	for i := 0; i < n; i++ {
		sum += b.PDF(float64(i) * h)
	}
	if !almostEqual(sum*h, 1, 1e-3) {
		t.Errorf("Beta PDF mass = %g, want 1", sum*h)
	}
	checkMoments(t, "beta", b.Sample, b.Mean(), b.Variance(), 200000, 0.005, 0.005)
	checkCDFMatchesSamples(t, "beta", b, 80000, 0.01)
}

// TestBetaPDFNormalizerHoisted checks Beta.PDF bit for bit against the
// expression that recomputed the normalizing constant on every call,
// kept here verbatim, across supports and points including both
// endpoints.
func TestBetaPDFNormalizerHoisted(t *testing.T) {
	old := func(b Beta, x float64) float64 {
		w := b.width()
		if w <= 0 || x < b.Lo || x > b.Hi {
			return 0
		}
		t := (x - b.Lo) / w
		lb := lgamma(betaAlpha+betaBeta) - lgamma(betaAlpha) - lgamma(betaBeta)
		return math.Exp(lb+(betaAlpha-1)*math.Log(t)+(betaBeta-1)*math.Log(1-t)) / w
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		min := math.Ldexp(0.5+rng.Float64(), rng.Intn(40)-20)
		b := NewBetaUL(min, 1+math.Ldexp(rng.Float64(), -rng.Intn(12)))
		xs := []float64{b.Lo, b.Hi, math.Nextafter(b.Lo, b.Hi), math.Nextafter(b.Hi, b.Lo)}
		for j := 0; j < 50; j++ {
			xs = append(xs, b.Lo+rng.Float64()*(b.Hi-b.Lo))
		}
		for _, x := range xs {
			if got, want := b.PDF(x), old(b, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Beta[%v, %v].PDF(%v) = %v, want %v", b.Lo, b.Hi, x, got, want)
			}
		}
	}
}

func TestBetaScaled(t *testing.T) {
	// Beta(2,5) over [10, 11] — the paper's UL = 1.1 at min = 10.
	b := NewBetaUL(10, 1.1)
	if b.Lo != 10 || !almostEqual(b.Hi, 11, 1e-12) {
		t.Errorf("support [%g,%g], want [10,11]", b.Lo, b.Hi)
	}
	if !almostEqual(b.Mean(), 10+2.0/7, 1e-12) {
		t.Errorf("scaled mean = %g", b.Mean())
	}
	if b.CDF(10) != 0 || b.CDF(11) != 1 {
		t.Error("scaled CDF endpoints wrong")
	}
	if b.PDF(9.99) != 0 || b.PDF(11.01) != 0 {
		t.Error("scaled PDF outside support must be 0")
	}
}

func TestRegIncBetaProperties(t *testing.T) {
	if RegIncBeta(2, 5, 0) != 0 || RegIncBeta(2, 5, 1) != 1 {
		t.Error("I_x endpoints wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.8} {
		if !almostEqual(RegIncBeta(2, 5, x), 1-RegIncBeta(5, 2, 1-x), 1e-10) {
			t.Errorf("symmetry violated at %g", x)
		}
	}
	// I_x(1,1) = x.
	for _, x := range []float64{0.2, 0.7} {
		if !almostEqual(RegIncBeta(1, 1, x), x, 1e-10) {
			t.Errorf("I_x(1,1) = %g, want %g", RegIncBeta(1, 1, x), x)
		}
	}
}
