package makespan

import (
	"math"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// SpeldeResult is the makespan summary produced by Spelde's method:
// every random variable is reduced to its mean and standard deviation
// and only those two moments are propagated (no convolutions).
type SpeldeResult struct {
	Mean, Std float64
}

// RV materializes the result as a normal numeric variable (the CLT
// justification of the method), suitable wherever a full distribution
// is expected.
func (r SpeldeResult) RV(gridSize int) *stochastic.Numeric {
	if r.Std <= 0 {
		return stochastic.NewPoint(r.Mean)
	}
	return stochastic.FromDist(stochastic.Normal{Mu: r.Mean, Sigma: r.Std}, gridSize)
}

// clarkMax returns the first two moments of max(X, Y) for independent
// normals X ~ (mu1, var1) and Y ~ (mu2, var2), by Clark's (1961)
// formulas.
func clarkMax(mu1, var1, mu2, var2 float64) (mu, variance float64) {
	a2 := var1 + var2
	if a2 <= 0 {
		// Both degenerate.
		if mu1 >= mu2 {
			return mu1, 0
		}
		return mu2, 0
	}
	a := math.Sqrt(a2)
	alpha := (mu1 - mu2) / a
	phi := math.Exp(-alpha*alpha/2) / math.Sqrt(2*math.Pi)
	Phi := 0.5 * (1 + math.Erf(alpha/math.Sqrt2))
	mu = mu1*Phi + mu2*(1-Phi) + a*phi
	second := (mu1*mu1+var1)*Phi + (mu2*mu2+var2)*(1-Phi) + (mu1+mu2)*a*phi
	variance = second - mu*mu
	if variance < 0 {
		variance = 0
	}
	return mu, variance
}

// EvaluateSpelde propagates (µ, σ²) through the disjunctive graph:
// sums add moments, maxima use Clark's normal approximation. This is
// the fast method of Ludwig, Möhring & Stork's study that the paper
// evaluates. It runs on the compiled evaluation model; callers with
// many schedules per scenario should hold an EvalCache and call
// Model(s).Spelde() directly.
func EvaluateSpelde(scen *platform.Scenario, s *schedule.Schedule) (SpeldeResult, error) {
	m, err := NewEvalCache(scen, 0).Model(s)
	if err != nil {
		return SpeldeResult{}, err
	}
	return m.Spelde(), nil
}
