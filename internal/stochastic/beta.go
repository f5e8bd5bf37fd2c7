package stochastic

import (
	"math"
	"math/rand"
)

// The shape of the paper's duration law, Beta(2, 5): right-skewed
// (β > α) with a well-defined non-zero mode (α > 1), so most
// realizations land near the minimum duration with a tail toward the
// maximum.
const (
	betaAlpha = 2
	betaBeta  = 5
)

// Beta is the Beta(2, 5) distribution linearly rescaled to the
// interval [Lo, Hi]. The paper's uncertainty model is Beta(2, 5) over
// [min, min·UL].
type Beta struct {
	Lo, Hi float64 // support of the rescaled variable
}

// NewBetaUL builds the paper's duration distribution: Beta(2,5) scaled
// to [min, min·ul]. ul must be >= 1; ul == 1 collapses to a Dirac and
// callers should special-case that (see platform.Scenario.DurDist).
func NewBetaUL(min, ul float64) Beta {
	return Beta{Lo: min, Hi: min * ul}
}

func (b Beta) width() float64 { return b.Hi - b.Lo }

// Mean returns Lo + width·α/(α+β).
func (b Beta) Mean() float64 {
	return b.Lo + b.width()*betaAlpha/(betaAlpha+betaBeta)
}

// Variance returns width²·αβ/((α+β)²(α+β+1)).
func (b Beta) Variance() float64 {
	const s = betaAlpha + betaBeta
	w := b.width()
	return w * w * betaAlpha * betaBeta / (s * s * (s + 1))
}

// betaLogNorm is −log B(α, β), the log of the Beta(2, 5) density's
// normalizing constant.
var betaLogNorm = lgamma(betaAlpha+betaBeta) - lgamma(betaAlpha) - lgamma(betaBeta)

// PDF returns the density of the rescaled beta variable. With α, β > 1
// the expression is exactly +0 at both ends of the support (log 0 is
// −Inf and exp(−Inf) is +0), so the endpoints need no special case.
func (b Beta) PDF(x float64) float64 {
	w := b.width()
	if w <= 0 || x < b.Lo || x > b.Hi {
		return 0
	}
	t := (x - b.Lo) / w
	return math.Exp(betaLogNorm+(betaAlpha-1)*math.Log(t)+(betaBeta-1)*math.Log(1-t)) / w
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
	return RegIncBeta(betaAlpha, betaBeta, (x-b.Lo)/w)
}

// Support returns [Lo, Hi].
func (b Beta) Support() (float64, float64) { return b.Lo, b.Hi }

// Sample draws a beta variate via the ratio of gammas:
// X = G(α)/(G(α)+G(β)).
func (b Beta) Sample(rng *rand.Rand) float64 {
	ga := sampleGamma(rng, betaAlpha)
	gb := sampleGamma(rng, betaBeta)
	return b.Lo + b.width()*ga/(ga+gb)
}
