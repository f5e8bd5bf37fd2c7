package stochastic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Add is commutative in distribution (same moments and CDF).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), 64)
		b := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), 64)
		ab := a.Add(b, 64)
		ba := b.Add(a, 64)
		if !almostEqual(ab.Mean(), ba.Mean(), 1e-6*ab.Mean()) {
			return false
		}
		if !almostEqual(ab.StdDev(), ba.StdDev(), 1e-4*ab.StdDev()+1e-9) {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			if !almostEqual(ab.Quantile(q), ba.Quantile(q), 1e-3*ab.Mean()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: MaxWith is commutative and dominates both operands in mean.
func TestMaxCommutativeDominantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), 64)
		b := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), 64)
		ab := a.MaxWith(b, 64)
		ba := b.MaxWith(a, 64)
		if !almostEqual(ab.Mean(), ba.Mean(), 1e-4*ab.Mean()) {
			return false
		}
		// E[max(X,Y)] >= max(E[X], E[Y]) (within grid tolerance).
		tol := 0.01 * ab.Mean()
		return ab.Mean() >= a.Mean()-tol && ab.Mean() >= b.Mean()-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile inverts CDFAt on the interior of the support.
func TestQuantileCDFRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rv := FromDist(NewBetaUL(5+5*rng.Float64(), 1.2+rng.Float64()), 128)
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			x := rv.Quantile(p)
			if !almostEqual(rv.CDFAt(x), p, 0.02) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestShiftedDistribution(t *testing.T) {
	base := Uniform{Lo: 0, Hi: 2}
	sh := Shifted{D: base, Off: 10}
	if sh.Mean() != 11 {
		t.Errorf("mean = %g, want 11", sh.Mean())
	}
	if sh.Variance() != base.Variance() {
		t.Error("translation must not change variance")
	}
	lo, hi := sh.Support()
	if lo != 10 || hi != 12 {
		t.Errorf("support [%g,%g], want [10,12]", lo, hi)
	}
	if sh.PDF(11) != base.PDF(1) || sh.CDF(11) != base.CDF(1) {
		t.Error("translated PDF/CDF wrong")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if x := sh.Sample(rng); x < 10 || x > 12 {
			t.Fatalf("sample %g outside support", x)
		}
	}
}

// badDensity is a Uniform with its density replaced by f, to feed
// FromDist a malformed density.
type badDensity struct {
	Uniform
	f func(x float64) float64
}

func (d badDensity) PDF(x float64) float64 { return d.f(x) }

// Failure injection: a density of all-zeros collapses to a point
// rather than dividing by zero.
func TestZeroMassCollapse(t *testing.T) {
	rv := FromDist(badDensity{Uniform{Lo: 0, Hi: 1}, func(float64) float64 { return 0 }}, 4)
	if !rv.IsPoint() {
		t.Error("zero-mass density should collapse to a point")
	}
	if math.IsNaN(rv.Mean()) {
		t.Error("NaN mean after collapse")
	}
}

// Failure injection: NaN and negative density samples are set to 0 and
// the rest renormalized to unit mass.
func TestNaNDensitySanitized(t *testing.T) {
	for _, end := range []float64{math.NaN(), -5} {
		rv := FromDist(badDensity{Uniform{Lo: 0, Hi: 1}, func(x float64) float64 {
			if x <= 0 || x >= 1 {
				return end
			}
			return 1
		}}, 4)
		grid := rv.PDFGrid()
		h := rv.Step()
		var mass float64
		for i, v := range grid {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("density sample %v survived sanitization (ends %v)", v, end)
			}
			if i > 0 {
				mass += h * (grid[i-1] + grid[i]) / 2
			}
		}
		if !almostEqual(mass, 1, 1e-9) {
			t.Errorf("normalized mass = %g, want 1 (ends %v)", mass, end)
		}
		if math.IsNaN(rv.Mean()) || math.IsNaN(rv.Variance()) {
			t.Errorf("NaN moments (ends %v)", end)
		}
	}
}
