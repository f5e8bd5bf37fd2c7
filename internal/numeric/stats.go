package numeric

import "math"

// KahanSum returns the compensated (Kahan) sum of xs, which keeps the
// rounding error bounded independently of len(xs).
func KahanSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return KahanSum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than 2
// values), computed with a two-pass mean-centred algorithm.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MovingAverage smooths uniform-grid samples with a centred window of
// the given half-width (window = 2*halfWidth+1), shrinking the window at
// the boundaries. halfWidth <= 0 returns a copy.
func MovingAverage(y []float64, halfWidth int) []float64 {
	out := make([]float64, len(y))
	if halfWidth <= 0 {
		copy(out, y)
		return out
	}
	for i := range y {
		lo := i - halfWidth
		if lo < 0 {
			lo = 0
		}
		hi := i + halfWidth
		if hi > len(y)-1 {
			hi = len(y) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += y[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Linspace returns n uniformly spaced points covering [lo, hi]
// inclusive. n must be >= 2 for a non-degenerate grid; n == 1 yields
// {lo}.
func Linspace(lo, hi float64, n int) []float64 {
	return LinspaceInto(make([]float64, n), lo, hi)
}

// LinspaceInto is Linspace writing into a caller-owned slice whose
// length selects the point count.
func LinspaceInto(out []float64, lo, hi float64) []float64 {
	n := len(out)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	// Guard against rounding drift on the last point.
	out[n-1] = hi
	return out
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
