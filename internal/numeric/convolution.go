// Package numeric provides the numerical-analysis substrate the original
// study obtained from the GSL: direct convolution, composite Simpson
// integration, natural cubic splines, smoothing and a handful of
// summation/statistics helpers.
//
// Everything operates on float64 slices; no external dependencies.
package numeric

import "slices"

// dotBlock is the number of outputs one dotBlocks pass computes: six
// two-lane accumulators in dot_amd64.s, which hardcodes it.
const dotBlock = 12

// ConvScratch holds the work arrays of ConvolveInto so hot loops can
// convolve without allocating: win is the zero-padded window over the
// longer operand, and coef the shorter operand reversed when it is b.
// Both grow geometrically. The zero value is ready to use.
type ConvScratch struct {
	win, coef []float64
}

// resize returns *buf resliced to n, reallocating only when its capacity
// is short, then to at least twice the old capacity.
func resize(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}

// ConvolveInto writes the full linear convolution of a and b into out,
// which must have length len(a)+len(b)-1 (its prior contents are
// overwritten), and returns it; nil when either operand is empty. ws
// carries the work arrays, and the result does not depend on what it
// held before. Every element of a and b must be finite.
//
// Output k is the sum of a[i]·b[k−i] in increasing i, as in the plain
// double loop, computed output by output as a dot product (dotBlocks).
// The shorter operand is the coefficient vector c; the longer one is
// laid into the window w between len(c)−1 zeros on the left and enough
// zeros on the right for the last, partial block of outputs. a keeps
// its order and b runs reversed: when b is the shorter, c is b reversed
// and w holds a; when a is the shorter (or as long), c is a and w holds
// b reversed, which yields the outputs in reverse order.
//
// The bits equal the double loop's, which skipped every a[i] = 0. Each
// output starts at +0 and takes the same products in the same order;
// the extra terms, zero coefficients and window padding, are ±0, and
// adding ±0 leaves a sum unchanged unless the sum is −0, which one that
// starts at +0 never is in round-to-nearest. With an infinite operand
// an extra term would be 0·Inf = NaN instead; hence finite operands.
func ConvolveInto(out, a, b []float64, ws *ConvScratch) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	coefA := len(a) <= len(b)
	c := a
	if !coefA {
		c = resize(&ws.coef, len(b))
		for j, v := range b {
			c[len(b)-1-j] = v
		}
	}
	n, pad := len(out), len(c)-1
	full := n - n%dotBlock
	w := resize(&ws.win, full+dotBlock+pad)
	clear(w[:pad])
	if coefA {
		for j, v := range b {
			w[n-1-j] = v
		}
	} else {
		copy(w[pad:], a)
	}
	clear(w[n:])
	dotBlocks(out[:full], c, w)
	if full < n {
		var tail [dotBlock]float64
		dotBlocks(tail[:], c, w[full:])
		copy(out[full:], tail[:])
	}
	if coefA {
		slices.Reverse(out)
	}
	return out
}
