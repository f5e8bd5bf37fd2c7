// Package stochastic implements the random-variable substrate of the
// study: parametric distributions (Beta, Normal, Uniform, Dirac,
// Shifted and the "special" concatenated-Beta distribution of
// Figure 7), numerically represented random variables on a uniform PDF
// grid with sum (convolution) and maximum (CDF product) operators,
// empirical distributions built from Monte-Carlo samples, and the Gamma
// sampler that draws the random graphs' task and machine weights.
//
// The paper models every uncertain duration as a right-skewed Beta(2,5)
// random variable stretched over [min, min·UL], where UL is the
// uncertainty level; this package provides exactly that plus everything
// needed to propagate such variables through a schedule.
package stochastic

import (
	"math"
	"math/rand"
)

// Dist is a one-dimensional probability distribution. Support returns a
// finite interval that carries (essentially) all of the probability
// mass; unbounded distributions report a high-coverage truncation (e.g.
// µ ± 8σ for the normal) so densities can be discretized.
type Dist interface {
	Sample(rng *rand.Rand) float64
	Mean() float64
	Variance() float64
	PDF(x float64) float64
	CDF(x float64) float64
	Support() (lo, hi float64)
}

// StdDev returns the standard deviation of d.
func StdDev(d Dist) float64 { return math.Sqrt(d.Variance()) }

// Dirac is the degenerate distribution concentrated at Value.
type Dirac struct{ Value float64 }

// Sample returns the constant value.
func (d Dirac) Sample(*rand.Rand) float64 { return d.Value }

// Mean returns the constant value.
func (d Dirac) Mean() float64 { return d.Value }

// Variance returns 0.
func (d Dirac) Variance() float64 { return 0 }

// PDF is +Inf at the atom and 0 elsewhere (a true density does not
// exist; callers treat Dirac specially).
func (d Dirac) PDF(x float64) float64 {
	if x == d.Value { //reprovet:allow floateq a Dirac atom is a point mass; its density is infinite at exactly the atom
		return math.Inf(1)
	}
	return 0
}

// CDF is the unit step at Value.
func (d Dirac) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Support returns the degenerate interval [Value, Value].
func (d Dirac) Support() (float64, float64) { return d.Value, d.Value }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// Sample draws a uniform variate.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Variance returns (Hi-Lo)²/12.
func (u Uniform) Variance() float64 {
	w := u.Hi - u.Lo
	return w * w / 12
}

// PDF returns the uniform density.
func (u Uniform) PDF(x float64) float64 {
	if x < u.Lo || x > u.Hi || u.Hi <= u.Lo {
		return 0
	}
	return 1 / (u.Hi - u.Lo)
}

// CDF returns the uniform CDF.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Support returns [Lo, Hi].
func (u Uniform) Support() (float64, float64) { return u.Lo, u.Hi }

// Normal is the Gaussian distribution with mean Mu and standard
// deviation Sigma (> 0).
type Normal struct{ Mu, Sigma float64 }

// Sample draws a Gaussian variate.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns Sigma².
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// PDF returns the Gaussian density.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns the Gaussian CDF via erf.
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-n.Mu)/(n.Sigma*math.Sqrt2)))
}

// Support truncates at Mu ± 8 Sigma (mass beyond is ~1e-15).
func (n Normal) Support() (float64, float64) {
	return n.Mu - 8*n.Sigma, n.Mu + 8*n.Sigma
}

// Shifted translates a distribution by Off: the law of D + Off. It is
// used to move zero-based families (like the oscillating Special
// distribution) onto a duration interval [min, min·UL].
type Shifted struct {
	D   Dist
	Off float64
}

// Sample draws D + Off.
func (s Shifted) Sample(rng *rand.Rand) float64 { return s.D.Sample(rng) + s.Off }

// Mean returns E[D] + Off.
func (s Shifted) Mean() float64 { return s.D.Mean() + s.Off }

// Variance is unchanged by translation.
func (s Shifted) Variance() float64 { return s.D.Variance() }

// PDF evaluates the translated density.
func (s Shifted) PDF(x float64) float64 { return s.D.PDF(x - s.Off) }

// CDF evaluates the translated CDF.
func (s Shifted) CDF(x float64) float64 { return s.D.CDF(x - s.Off) }

// Support returns the translated support.
func (s Shifted) Support() (float64, float64) {
	lo, hi := s.D.Support()
	return lo + s.Off, hi + s.Off
}
