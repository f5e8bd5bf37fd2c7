package numeric

// SimpsonUniform integrates samples of a function taken on a uniform grid
// with spacing h, using composite Simpson's rule. When the number of
// intervals is odd the final interval is handled with the trapezoidal
// rule. len(y) must be >= 2.
func SimpsonUniform(y []float64, h float64) float64 {
	n := len(y)
	switch {
	case n < 2:
		return 0
	case n == 2:
		return h * (y[0] + y[1]) / 2
	}
	intervals := n - 1
	end := n
	var tail float64
	if intervals%2 == 1 {
		// Peel off one trapezoid so Simpson sees an even interval count.
		tail = h * (y[n-2] + y[n-1]) / 2
		end = n - 1
	}
	sum := y[0] + y[end-1]
	for i := 1; i < end-1; i++ {
		if i%2 == 1 {
			sum += 4 * y[i]
		} else {
			sum += 2 * y[i]
		}
	}
	return h/3*sum + tail
}

// TrapezoidUniform integrates uniform-grid samples with the composite
// trapezoidal rule.
func TrapezoidUniform(y []float64, h float64) float64 {
	if len(y) < 2 {
		return 0
	}
	sum := (y[0] + y[len(y)-1]) / 2
	for _, v := range y[1 : len(y)-1] {
		sum += v
	}
	return sum * h
}

// CumTrapezoid returns the running trapezoidal integral of uniform-grid
// samples: out[i] = integral of y from x[0] to x[i]. out[0] = 0.
func CumTrapezoid(y []float64, h float64) []float64 {
	return CumTrapezoidInto(make([]float64, len(y)), y, h)
}

// CumTrapezoidInto is CumTrapezoid writing into a caller-owned slice of
// length len(y); prior contents are overwritten.
func CumTrapezoidInto(out, y []float64, h float64) []float64 {
	if len(out) > 0 {
		out[0] = 0
	}
	for i := 1; i < len(y); i++ {
		out[i] = out[i-1] + h*(y[i-1]+y[i])/2
	}
	return out
}
