package stochastic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromDistUniformMoments(t *testing.T) {
	rv := FromDist(Uniform{Lo: 0, Hi: 4}, 64)
	if !almostEqual(rv.Mean(), 2, 0.01) {
		t.Errorf("mean = %g, want 2", rv.Mean())
	}
	if !almostEqual(rv.Variance(), 16.0/12, 0.02) {
		t.Errorf("variance = %g, want %g", rv.Variance(), 16.0/12)
	}
}

func TestFromDistBetaMoments(t *testing.T) {
	b := NewBetaUL(10, 1.5) // Beta(2,5) over [10,15]
	rv := FromDist(b, 64)
	if !almostEqual(rv.Mean(), b.Mean(), 0.02) {
		t.Errorf("mean = %g, want %g", rv.Mean(), b.Mean())
	}
	if !almostEqual(rv.StdDev(), math.Sqrt(b.Variance()), 0.02) {
		t.Errorf("stddev = %g, want %g", rv.StdDev(), math.Sqrt(b.Variance()))
	}
}

func TestFromDistDiracIsPoint(t *testing.T) {
	rv := FromDist(Dirac{Value: 7}, 64)
	if !rv.IsPoint() || rv.Lo() != 7 {
		t.Error("Dirac should discretize to a point variable")
	}
	if rv.Mean() != 7 || rv.Variance() != 0 {
		t.Error("point moments wrong")
	}
	if rv.CDFAt(6.9) != 0 || rv.CDFAt(7) != 1 {
		t.Error("point CDF wrong")
	}
	if !math.IsInf(rv.Entropy(), -1) {
		t.Error("point entropy should be -Inf")
	}
}

func TestNumericCDFMonotone(t *testing.T) {
	rv := FromDist(NewBetaUL(5, 2), 64)
	prev := -1.0
	for _, x := range rv.XGrid() {
		v := rv.CDFAt(x)
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at %g", x)
		}
		prev = v
	}
	if !almostEqual(rv.CDFAt(rv.Hi()), 1, 1e-9) {
		t.Errorf("CDF at hi = %g, want 1", rv.CDFAt(rv.Hi()))
	}
}

func TestAddOfUniformsIsTriangle(t *testing.T) {
	a := FromDist(Uniform{0, 1}, 64)
	b := FromDist(Uniform{0, 1}, 64)
	sum := a.Add(b, 128)
	if !almostEqual(sum.Lo(), 0, 1e-9) || !almostEqual(sum.Hi(), 2, 1e-9) {
		t.Errorf("sum support [%g,%g], want [0,2]", sum.Lo(), sum.Hi())
	}
	if !almostEqual(sum.Mean(), 1, 0.01) {
		t.Errorf("sum mean = %g, want 1", sum.Mean())
	}
	if !almostEqual(sum.Variance(), 2.0/12, 0.01) {
		t.Errorf("sum variance = %g, want %g", sum.Variance(), 2.0/12)
	}
	// Triangle density peaks at 1 with height ~1.
	if peak := sum.PDFAt(1); !almostEqual(peak, 1, 0.08) {
		t.Errorf("triangle peak = %g, want ~1", peak)
	}
}

func TestAddMeansAndVariancesCompose(t *testing.T) {
	// E[X+Y] = E[X]+E[Y]; Var[X+Y] = Var[X]+Var[Y] for independent RVs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mkBeta := func() Beta {
			min := 1 + 10*rng.Float64()
			ul := 1.05 + rng.Float64()
			return NewBetaUL(min, ul)
		}
		da, db := mkBeta(), mkBeta()
		a, b := FromDist(da, 64), FromDist(db, 64)
		sum := a.Add(b, 64)
		wantMean := da.Mean() + db.Mean()
		wantVar := da.Variance() + db.Variance()
		return almostEqual(sum.Mean(), wantMean, 0.02*wantMean) &&
			almostEqual(sum.Variance(), wantVar, 0.1*wantVar+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAddWithPointIsShift(t *testing.T) {
	a := FromDist(Uniform{2, 3}, 64)
	p := NewPoint(5)
	sum := a.Add(p, 64)
	if !almostEqual(sum.Lo(), 7, 1e-9) || !almostEqual(sum.Hi(), 8, 1e-9) {
		t.Errorf("shift support [%g,%g], want [7,8]", sum.Lo(), sum.Hi())
	}
	sum2 := p.Add(a, 64)
	if !almostEqual(sum2.Mean(), sum.Mean(), 1e-9) {
		t.Error("point+rv and rv+point disagree")
	}
	pp := NewPoint(1).Add(NewPoint(2), 64)
	if !pp.IsPoint() || pp.Lo() != 3 {
		t.Error("point+point should be a point at the sum")
	}
}

func TestMaxWithDominatedSupport(t *testing.T) {
	a := FromDist(Uniform{0, 1}, 64)
	b := FromDist(Uniform{5, 6}, 64)
	m := a.MaxWith(b, 64)
	if !almostEqual(m.Mean(), 5.5, 0.02) {
		t.Errorf("dominated max mean = %g, want 5.5", m.Mean())
	}
	m2 := b.MaxWith(a, 64)
	if !almostEqual(m2.Mean(), 5.5, 0.02) {
		t.Errorf("dominated max (reversed) mean = %g, want 5.5", m2.Mean())
	}
}

func TestMaxOfTwoUniforms(t *testing.T) {
	// max of two U(0,1): CDF x², mean 2/3, var 1/18.
	a := FromDist(Uniform{0, 1}, 128)
	b := FromDist(Uniform{0, 1}, 128)
	m := a.MaxWith(b, 128)
	if !almostEqual(m.Mean(), 2.0/3, 0.01) {
		t.Errorf("max mean = %g, want 2/3", m.Mean())
	}
	if !almostEqual(m.Variance(), 1.0/18, 0.01) {
		t.Errorf("max variance = %g, want 1/18", m.Variance())
	}
	if !almostEqual(m.CDFAt(0.5), 0.25, 0.02) {
		t.Errorf("max CDF(0.5) = %g, want 0.25", m.CDFAt(0.5))
	}
}

func TestMaxAgainstMonteCarlo(t *testing.T) {
	da := NewBetaUL(10, 1.4)
	db := NewBetaUL(11, 1.2)
	m := FromDist(da, 64).MaxWith(FromDist(db, 64), 64)
	rng := rand.New(rand.NewSource(17))
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := math.Max(da.Sample(rng), db.Sample(rng))
		sum += x
		sum2 += x * x
	}
	mcMean := sum / float64(n)
	mcVar := sum2/float64(n) - mcMean*mcMean
	if !almostEqual(m.Mean(), mcMean, 0.02) {
		t.Errorf("max mean = %g, MC %g", m.Mean(), mcMean)
	}
	if !almostEqual(m.Variance(), mcVar, 0.05*mcVar+0.005) {
		t.Errorf("max variance = %g, MC %g", m.Variance(), mcVar)
	}
}

func TestMaxWithPointCases(t *testing.T) {
	a := FromDist(Uniform{2, 4}, 64)
	// Constant below support: identity.
	m := a.MaxWith(NewPoint(1), 64)
	if !almostEqual(m.Mean(), 3, 0.02) {
		t.Errorf("max(X, low) mean = %g, want 3", m.Mean())
	}
	// Constant above support: the constant.
	m = a.MaxWith(NewPoint(9), 64)
	if !m.IsPoint() || m.Lo() != 9 {
		t.Error("max(X, high) should be the point")
	}
	// Constant inside support: truncated with atom; mean between.
	m = a.MaxWith(NewPoint(3), 64)
	if m.Mean() < 3 || m.Mean() > 3.6 {
		t.Errorf("max(X, mid) mean = %g, want in (3, 3.6)", m.Mean())
	}
	// Two points.
	m = NewPoint(2).MaxWith(NewPoint(5), 64)
	if !m.IsPoint() || m.Lo() != 5 {
		t.Error("max of points should be the larger point")
	}
}

func TestEntropyOrdering(t *testing.T) {
	// A wider distribution has larger differential entropy.
	narrow := FromDist(Uniform{0, 1}, 64)
	wide := FromDist(Uniform{0, 10}, 64)
	if narrow.Entropy() >= wide.Entropy() {
		t.Errorf("entropy ordering violated: narrow %g >= wide %g", narrow.Entropy(), wide.Entropy())
	}
	// Uniform(0,1) has differential entropy 0.
	if !almostEqual(narrow.Entropy(), 0, 0.05) {
		t.Errorf("U(0,1) entropy = %g, want ~0", narrow.Entropy())
	}
	// N(0,1) entropy = 0.5 ln(2πe) ≈ 1.4189.
	gauss := FromDist(Normal{0, 1}, 256)
	if !almostEqual(gauss.Entropy(), 0.5*math.Log(2*math.Pi*math.E), 0.02) {
		t.Errorf("N(0,1) entropy = %g, want %g", gauss.Entropy(), 0.5*math.Log(2*math.Pi*math.E))
	}
}

func TestQuantile(t *testing.T) {
	rv := FromDist(Uniform{0, 10}, 128)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got := rv.Quantile(p); !almostEqual(got, 10*p, 0.15) {
			t.Errorf("quantile(%g) = %g, want %g", p, got, 10*p)
		}
	}
	if NewPoint(4).Quantile(0.3) != 4 {
		t.Error("point quantile should be the point")
	}
}

func TestShift(t *testing.T) {
	rv := FromDist(Uniform{0, 2}, 64)
	sh := rv.Shift(10)
	if !almostEqual(sh.Mean(), rv.Mean()+10, 1e-9) {
		t.Error("Shift mean wrong")
	}
	if !almostEqual(sh.Variance(), rv.Variance(), 1e-9) {
		t.Error("Shift must not change variance")
	}
}

// Property: repeated self-sums approach normality (CLT — the Fig. 8
// machinery in miniature): skew of the k-fold sum shrinks.
func TestCLTSelfSum(t *testing.T) {
	b := FromDist(NewBetaUL(1, 3), 64) // quite skewed
	sum := b.Clone()
	for i := 0; i < 9; i++ {
		sum = sum.Add(b, 64)
	}
	// Compare CDF of 10-fold sum with matched normal at several points.
	n := Normal{Mu: sum.Mean(), Sigma: sum.StdDev()}
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		x := sum.Lo() + frac*(sum.Hi()-sum.Lo())
		if d := math.Abs(sum.CDFAt(x) - n.CDF(x)); d > 0.03 {
			t.Errorf("10-fold sum CDF deviates from normal by %g at %g", d, x)
		}
	}
}

// A NaN read of a CDF or a quantile is NaN. CDFTable.CDFAt used to
// index its table at the minimum int for a NaN x, Numeric.Quantile
// returned the upper end of the support for a NaN p, Empirical.Quantile
// the largest sample and Empirical.CDFAt 1.
func TestNaNReadsAreNaN(t *testing.T) {
	nan := math.NaN()
	rv := FromDist(NewBetaUL(10, 1.3), 64)
	point := NewPoint(3)
	emp := NewEmpirical([]float64{3, 1, 2})
	for name, v := range map[string]float64{
		"CDFTable.CDFAt":       rv.CDFTable().CDFAt(nan),
		"Numeric.CDFAt":        rv.CDFAt(nan),
		"point CDFTable.CDFAt": point.CDFTable().CDFAt(nan),
		"Quantile":             rv.Quantile(nan),
		"point Quantile":       point.Quantile(nan),
		"Empirical.CDFAt":      emp.CDFAt(nan),
		"Empirical.Quantile":   emp.Quantile(nan),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(NaN) = %v, want NaN", name, v)
		}
	}
	// Reads at and beyond the ends keep their values.
	cdf := rv.CDFTable()
	if cdf.CDFAt(rv.Lo()) != 0 || cdf.CDFAt(math.Inf(-1)) != 0 || cdf.CDFAt(rv.Hi()) != 1 {
		t.Error("CDF at or beyond the support's ends changed")
	}
	if point.CDFAt(2) != 0 || point.CDFAt(3) != 1 {
		t.Error("point CDF changed")
	}
	if emp.CDFAt(math.Inf(-1)) != 0 || emp.CDFAt(3) != 1 || emp.Quantile(0) != 1 || emp.Quantile(1) != 3 {
		t.Error("Empirical reads at or beyond the sample range changed")
	}
}
