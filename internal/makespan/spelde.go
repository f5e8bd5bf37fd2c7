package makespan

import "math"

// SpeldeResult is the makespan summary produced by Spelde's method:
// every random variable is reduced to its mean and standard deviation
// and only those two moments are propagated (no convolutions).
type SpeldeResult struct {
	Mean, Std float64
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
