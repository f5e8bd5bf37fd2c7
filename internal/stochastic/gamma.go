package stochastic

import (
	"math"
	"math/rand"
)

// Gamma is the gamma distribution with shape Alpha (k) and scale Theta,
// mean Alpha·Theta. The experimental setup of the paper draws the
// deterministic task and communication weights from a gamma distribution
// parameterized by a mean and a coefficient of variation (Ali et al.),
// see GammaFromMeanCV. It is only ever sampled, so it carries no
// density and does not implement Dist.
type Gamma struct {
	Alpha float64 // shape, > 0
	Theta float64 // scale, > 0
}

// GammaFromMeanCV builds the gamma distribution with the given mean and
// coefficient of variation V (= σ/µ), the parameterization used by the
// CV-based heterogeneity model: Alpha = 1/V², Theta = mean·V².
func GammaFromMeanCV(mean, v float64) Gamma {
	alpha := 1 / (v * v)
	return Gamma{Alpha: alpha, Theta: mean / alpha}
}

// Sample draws a gamma variate using the Marsaglia–Tsang squeeze method
// (with the alpha < 1 boost).
func (g Gamma) Sample(rng *rand.Rand) float64 {
	return sampleGamma(rng, g.Alpha) * g.Theta
}

func sampleGamma(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		// Boost: G(a) = G(a+1) * U^(1/a).
		u := rng.Float64()
		for u == 0 { //reprovet:allow floateq rejection of the exact zero the boost step cannot take log of
			u = rng.Float64()
		}
		return sampleGamma(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
