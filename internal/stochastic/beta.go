package stochastic

import (
	"math"
	"math/rand"
)

// Beta is a Beta(Alpha, Beta) distribution linearly rescaled to the
// interval [Lo, Hi]. The paper's uncertainty model is Beta(2, 5) over
// [min, min·UL]: right-skewed (β > α) with a well-defined non-zero mode
// (α > 1), so most realizations land near the minimum duration with a
// tail toward the maximum.
type Beta struct {
	Alpha, Beta float64 // shape parameters, > 0
	Lo, Hi      float64 // support of the rescaled variable
}

// NewBetaUL builds the paper's duration distribution: Beta(2,5) scaled
// to [min, min·ul]. ul must be >= 1; ul == 1 collapses to a Dirac and
// callers should special-case that (see platform.Scenario.DurDist).
func NewBetaUL(min, ul float64) Beta {
	return Beta{Alpha: 2, Beta: 5, Lo: min, Hi: min * ul}
}

func (b Beta) width() float64 { return b.Hi - b.Lo }

// Mean returns Lo + width·α/(α+β).
func (b Beta) Mean() float64 {
	return b.Lo + b.width()*b.Alpha/(b.Alpha+b.Beta)
}

// Variance returns width²·αβ/((α+β)²(α+β+1)).
func (b Beta) Variance() float64 {
	s := b.Alpha + b.Beta
	w := b.width()
	return w * w * b.Alpha * b.Beta / (s * s * (s + 1))
}

// PDF returns the density of the rescaled beta variable.
func (b Beta) PDF(x float64) float64 {
	w := b.width()
	if w <= 0 || x < b.Lo || x > b.Hi {
		return 0
	}
	t := (x - b.Lo) / w
	if t == 0 { //reprovet:allow floateq density special case at the exact lower support endpoint
		if b.Alpha < 1 {
			return math.Inf(1)
		}
		if b.Alpha == 1 { //reprovet:allow floateq Alpha is a configured parameter compared to its exact special-case value
			return b.Beta / w
		}
		return 0
	}
	if t == 1 { //reprovet:allow floateq density special case at the exact upper support endpoint
		if b.Beta < 1 {
			return math.Inf(1)
		}
		if b.Beta == 1 { //reprovet:allow floateq Beta is a configured parameter compared to its exact special-case value
			return b.Alpha / w
		}
		return 0
	}
	lb := lgamma(b.Alpha+b.Beta) - lgamma(b.Alpha) - lgamma(b.Beta)
	return math.Exp(lb+(b.Alpha-1)*math.Log(t)+(b.Beta-1)*math.Log(1-t)) / w
}

// CDF returns the regularized incomplete beta of the rescaled argument.
func (b Beta) CDF(x float64) float64 {
	w := b.width()
	if w <= 0 {
		if x < b.Lo {
			return 0
		}
		return 1
	}
	return RegIncBeta(b.Alpha, b.Beta, (x-b.Lo)/w)
}

// Support returns [Lo, Hi].
func (b Beta) Support() (float64, float64) { return b.Lo, b.Hi }

// Sample draws a beta variate via the ratio of gammas:
// X = G(α)/(G(α)+G(β)).
func (b Beta) Sample(rng *rand.Rand) float64 {
	ga := sampleGamma(rng, b.Alpha)
	gb := sampleGamma(rng, b.Beta)
	return b.Lo + b.width()*ga/(ga+gb)
}
