package numeric

import "slices"

// dotBlock is the number of outputs one dotBlocks pass computes: six
// two-lane accumulators in dot_amd64.s, which hardcodes it.
const dotBlock = 12

// convolveDirectInto writes the full convolution into out, which must
// have length len(a)+len(b)-1 (its prior contents are overwritten),
// laying its window out in ws. Every element of a and b must be finite.
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
func convolveDirectInto(out, a, b []float64, ws *ConvScratch) []float64 {
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

// ConvScratch holds the work arrays of the convolution routines so hot
// loops can convolve without allocating. The zero value is ready to use.
type ConvScratch struct {
	are, aim, bre, bim []float64 // FFT work arrays

	// The direct sum's operands (convolveDirectInto): win is the
	// zero-padded window over the longer operand, and coef the shorter
	// operand reversed when it is b. Both grow geometrically.
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

func (ws *ConvScratch) grow(n int) (are, aim, bre, bim []float64) {
	if cap(ws.are) < n {
		ws.are = make([]float64, n)
		ws.aim = make([]float64, n)
		ws.bre = make([]float64, n)
		ws.bim = make([]float64, n)
	}
	return ws.are[:n], ws.aim[:n], ws.bre[:n], ws.bim[:n]
}

// convolveFFTInto writes the full linear convolution of a and b into
// out (length len(a)+len(b)-1) by a single zero-padded FFT of size
// NextPow2(len(a)+len(b)-1), using ws for the transforms.
func convolveFFTInto(out, a, b []float64, ws *ConvScratch) []float64 {
	outLen := len(a) + len(b) - 1
	n := NextPow2(outLen)
	are, aim, bre, bim := ws.grow(n)
	for i := range are {
		are[i], aim[i], bre[i], bim[i] = 0, 0, 0, 0
	}
	copy(are, a)
	copy(bre, b)
	// Errors are impossible here: lengths are equal powers of two.
	_ = FFT(are, aim, false)
	_ = FFT(bre, bim, false)
	for i := 0; i < n; i++ {
		re := are[i]*bre[i] - aim[i]*bim[i]
		im := are[i]*bim[i] + aim[i]*bre[i]
		are[i], aim[i] = re, im
	}
	_ = FFT(are, aim, true)
	copy(out, are[:outLen])
	return out
}

// convolveOverlapAddInto writes the full linear convolution of signal
// with kernel into out (length len(signal)+len(kernel)-1) by the
// overlap-add method, using ws for the transforms: the signal is cut
// into blocks, each block is convolved with the kernel by FFT, and the
// partial results are summed with the proper offsets. This is the
// optimization the paper names for convolving long densities with
// short kernels. A block is 4x the kernel length, rounded up to a power
// of two.
func convolveOverlapAddInto(out, signal, kernel []float64, ws *ConvScratch) []float64 {
	if len(kernel) > len(signal) {
		signal, kernel = kernel, signal
	}
	blockSize := NextPow2(4 * len(kernel))
	outLen := len(signal) + len(kernel) - 1
	for i := range out {
		out[i] = 0
	}
	fftLen := NextPow2(blockSize + len(kernel) - 1)

	// Pre-transform the kernel once.
	kre, kim, bre, bim := ws.grow(fftLen)
	for i := 0; i < fftLen; i++ {
		kre[i], kim[i] = 0, 0
	}
	copy(kre, kernel)
	_ = FFT(kre, kim, false)

	for start := 0; start < len(signal); start += blockSize {
		end := start + blockSize
		if end > len(signal) {
			end = len(signal)
		}
		for i := range bre {
			bre[i], bim[i] = 0, 0
		}
		copy(bre, signal[start:end])
		_ = FFT(bre, bim, false)
		for i := 0; i < fftLen; i++ {
			re := bre[i]*kre[i] - bim[i]*kim[i]
			im := bre[i]*kim[i] + bim[i]*kre[i]
			bre[i], bim[i] = re, im
		}
		_ = FFT(bre, bim, true)
		segLen := end - start + len(kernel) - 1
		for i := 0; i < segLen && start+i < outLen; i++ {
			out[start+i] += bre[i]
		}
	}
	return out
}

// directKernelMax is the largest "short side" that ConvolveInto sends
// to the direct sum. The direct sum is exact up to rounding and the FFT
// strategies add round-off of their own, so this cutoff and the 4096
// product fix which bits each shape's convolution gets: moving either
// changes results. The value was a measured speed crossover for an
// earlier direct kernel and is kept for its bits, not its speed. The
// makespan evaluation's hot shape, a work grid of thousands of points
// convolved with a narrow duration or communication kernel of a few
// dozen, sits far below it.
const directKernelMax = 96

// ConvolveInto writes the full linear convolution of a and b into out,
// which must have length len(a)+len(b)-1, with ws carrying the scratch.
// It picks a strategy by operand sizes: direct when either operand is
// short or the product is small (the direct sum is both faster and
// exact there), overlap-add when one operand is much shorter than the
// other, plain FFT otherwise. The result does not depend on what ws
// held before.
func ConvolveInto(out, a, b []float64, ws *ConvScratch) []float64 {
	la, lb := len(a), len(b)
	switch {
	case la == 0 || lb == 0:
		return nil
	case la <= directKernelMax || lb <= directKernelMax || la*lb <= 4096:
		return convolveDirectInto(out, a, b, ws)
	case la >= 8*lb || lb >= 8*la:
		return convolveOverlapAddInto(out, a, b, ws)
	default:
		return convolveFFTInto(out, a, b, ws)
	}
}
