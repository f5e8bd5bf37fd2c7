package stochastic

import (
	"math/rand"

	"repro/internal/numeric"
)

// Special is the deliberately non-normal distribution of Figure 7: a
// concatenation of Beta lobes laid side by side over [0, Width],
// producing an oscillating, right-heavy density that is far from
// Gaussian. Figure 8 convolves it with itself n times to show how fast
// the central limit theorem washes the oscillations out (the paper finds
// ~5 sums make it almost normal, 10 indistinguishable).
type Special struct {
	Width   float64   // total support [0, Width]
	Weights []float64 // mass of each lobe (normalized internally)
	lobes   []Beta
}

// NewSpecial builds the default Figure-7 distribution: three Beta(2,5)
// lobes of decreasing weight over [0, 40].
func NewSpecial() *Special {
	return NewSpecialWith(40, []float64{0.5, 0.3, 0.2})
}

// NewSpecialWith builds a concatenated-Beta distribution with the given
// total width and per-lobe weights (each lobe is Beta(2,5) over an equal
// share of the width).
func NewSpecialWith(width float64, weights []float64) *Special {
	k := len(weights)
	if k == 0 {
		weights = []float64{1}
		k = 1
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	norm := make([]float64, k)
	for i, w := range weights {
		norm[i] = w / total
	}
	lobeW := width / float64(k)
	lobes := make([]Beta, k)
	for i := range lobes {
		lobes[i] = Beta{Lo: float64(i) * lobeW, Hi: float64(i+1) * lobeW}
	}
	return &Special{Width: width, Weights: norm, lobes: lobes}
}

// Mean returns the mixture mean.
func (s *Special) Mean() float64 {
	var mu float64
	for i, l := range s.lobes {
		mu += s.Weights[i] * l.Mean()
	}
	return mu
}

// Variance returns the mixture variance.
func (s *Special) Variance() float64 {
	mu := s.Mean()
	var v float64
	for i, l := range s.lobes {
		d := l.Mean() - mu
		v += s.Weights[i] * (l.Variance() + d*d)
	}
	return v
}

// PDF returns the mixture density.
func (s *Special) PDF(x float64) float64 {
	var f float64
	for i, l := range s.lobes {
		f += s.Weights[i] * l.PDF(x)
	}
	return f
}

// CDF returns the mixture CDF.
func (s *Special) CDF(x float64) float64 {
	var f float64
	for i, l := range s.lobes {
		f += s.Weights[i] * l.CDF(x)
	}
	return numeric.Clamp(f, 0, 1)
}

// Support returns [0, Width].
func (s *Special) Support() (float64, float64) { return 0, s.Width }

// Sample draws from the mixture.
func (s *Special) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for i, w := range s.Weights {
		if u < w || i == len(s.Weights)-1 {
			return s.lobes[i].Sample(rng)
		}
		u -= w
	}
	return s.lobes[len(s.lobes)-1].Sample(rng)
}

// MatchedNormal returns the normal distribution with the same mean and
// standard deviation, the comparison target in Figures 7 and 8.
func (s *Special) MatchedNormal() Normal {
	return Normal{Mu: s.Mean(), Sigma: StdDev(s)}
}

var _ Dist = (*Special)(nil)
