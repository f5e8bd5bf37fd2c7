package stochastic

import (
	"math"
	"math/rand"
	"testing"
)

func TestSpecialIsProperDistribution(t *testing.T) {
	s := NewSpecial()
	lo, hi := s.Support()
	if lo != 0 || hi != 40 {
		t.Errorf("support [%g,%g], want [0,40]", lo, hi)
	}
	// PDF integrates to ~1.
	n := 8001
	h := hi / float64(n-1)
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.PDF(float64(i) * h)
	}
	if !almostEqual(sum*h, 1, 1e-3) {
		t.Errorf("special PDF mass = %g, want 1", sum*h)
	}
	// CDF endpoints.
	if s.CDF(-1) != 0 || s.CDF(41) != 1 {
		t.Error("special CDF endpoints wrong")
	}
	checkMoments(t, "special", s.Sample, s.Mean(), s.Variance(), 200000, 0.1, 2.0)
}

func TestSpecialIsMultimodal(t *testing.T) {
	s := NewSpecial()
	// Each lobe should produce a local max near its Beta(2,5) mode.
	lobeW := 40.0 / 3
	for i := 0; i < 3; i++ {
		mode := float64(i)*lobeW + lobeW*0.2
		if s.PDF(mode) <= s.PDF(float64(i)*lobeW+lobeW*0.95) {
			t.Errorf("lobe %d: density at mode not above right edge", i)
		}
	}
	// The lobe boundaries are density valleys (Beta(2,5) vanishes there).
	if s.PDF(lobeW) > 0.2*s.PDF(lobeW*0.2) {
		t.Error("no valley between lobes; distribution not oscillating")
	}
}

func TestSpecialDiffersFromMatchedNormal(t *testing.T) {
	// Fig. 7: the special and the matched normal share mean/σ but have
	// very different densities.
	s := NewSpecial()
	n := s.MatchedNormal()
	if !almostEqual(n.Mu, s.Mean(), 1e-12) || !almostEqual(n.Sigma, StdDev(s), 1e-12) {
		t.Fatal("matched normal does not match moments")
	}
	var maxDiff float64
	for x := 0.0; x <= 40; x += 0.1 {
		if d := math.Abs(s.PDF(x) - n.PDF(x)); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 0.01 {
		t.Errorf("special too close to normal: max PDF diff %g", maxDiff)
	}
}

func TestSpecialSamplingRespectsWeights(t *testing.T) {
	s := NewSpecialWith(30, []float64{1, 1, 2})
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		x := s.Sample(rng)
		b := int(x / 10)
		if b > 2 {
			b = 2
		}
		counts[b]++
	}
	// Expected fractions 0.25, 0.25, 0.5.
	for i, want := range []float64{0.25, 0.25, 0.5} {
		got := float64(counts[i]) / float64(n)
		if !almostEqual(got, want, 0.01) {
			t.Errorf("lobe %d fraction = %g, want %g", i, got, want)
		}
	}
}

func TestSpecialDegenerateWeights(t *testing.T) {
	s := NewSpecialWith(10, nil)
	if s.PDF(2) <= 0 {
		t.Error("defaulted special should have positive density")
	}
}
