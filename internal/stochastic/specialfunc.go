package stochastic

import "math"

// The special function behind the Beta CDF: the regularized incomplete
// beta I_x(a,b), by the classic continued-fraction evaluation
// (Numerical Recipes style), accurate to ~1e-12 over the ranges used
// here.

const (
	sfMaxIter = 500
	sfEps     = 3e-14
	sfFPMin   = 1e-300
)

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0,1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaContinuedFraction evaluates the continued fraction for the
// incomplete beta function by the modified Lentz method.
func betaContinuedFraction(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < sfFPMin {
		d = sfFPMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= sfMaxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < sfFPMin {
			d = sfFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < sfFPMin {
			c = sfFPMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < sfFPMin {
			d = sfFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < sfFPMin {
			c = sfFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < sfEps {
			break
		}
	}
	return h
}
