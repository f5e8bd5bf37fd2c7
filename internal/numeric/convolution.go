package numeric

// ConvolveDirect computes the full linear convolution of a and b by the
// naive O(len(a)·len(b)) algorithm. The result has length
// len(a)+len(b)-1. It is exact up to floating-point rounding and is the
// reference implementation for the FFT-based variants.
func ConvolveDirect(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return convolveDirectInto(make([]float64, len(a)+len(b)-1), a, b)
}

// convolveDirectInto writes the full convolution into out, which must
// have length len(a)+len(b)-1 (its prior contents are overwritten).
//
// Each nonzero a[i] adds av*b into the window out[i:i+len(b)] — an AXPY
// unrolled by four over fixed-length sub-slices, so the element accesses
// carry no bounds checks (one window check per four elements remains).
// Each out[i+j] still receives the same product a[i]*b[j] in increasing
// i, so the sums are bit-identical to the plain double loop.
func convolveDirectInto(out, a, b []float64) []float64 {
	clear(out)
	nb := len(b)
	for i, av := range a {
		if av == 0 { //reprovet:allow floateq sparse skip of exactly-zero mass bins; near-zero bins must still convolve
			continue
		}
		o := out[i:][:nb:nb]
		j := 0
		for ; j+4 <= nb; j += 4 {
			b4 := b[j : j+4 : j+4]
			o4 := o[j : j+4 : j+4]
			o4[0] += av * b4[0]
			o4[1] += av * b4[1]
			o4[2] += av * b4[2]
			o4[3] += av * b4[3]
		}
		for ; j < nb; j++ {
			o[j] += av * b[j]
		}
	}
	return out
}

// ConvScratch holds the FFT work arrays of the convolution routines so
// hot loops can convolve without allocating. The zero value is ready to
// use.
type ConvScratch struct {
	are, aim, bre, bim []float64
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

// ConvolveFFT computes the full linear convolution of a and b using a
// single zero-padded FFT of size NextPow2(len(a)+len(b)-1).
func ConvolveFFT(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	return convolveFFTInto(make([]float64, outLen), a, b, &ConvScratch{})
}

// convolveFFTInto is ConvolveFFT writing into out (length
// len(a)+len(b)-1) using ws for the transforms. Bit-identical to
// ConvolveFFT.
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

// ConvolveOverlapAdd computes the full linear convolution of signal with
// kernel using the overlap-add method: the signal is cut into blocks,
// each block is convolved with the kernel by FFT, and the partial results
// are summed with the proper offsets. This is the optimization the paper
// names for convolving long densities with short kernels. A block is 4x
// the kernel length, rounded up to a power of two.
func ConvolveOverlapAdd(signal, kernel []float64) []float64 {
	if len(signal) == 0 || len(kernel) == 0 {
		return nil
	}
	out := make([]float64, len(signal)+len(kernel)-1)
	return convolveOverlapAddInto(out, signal, kernel, &ConvScratch{})
}

// convolveOverlapAddInto is ConvolveOverlapAdd writing into out (length
// len(signal)+len(kernel)-1) using ws for the transforms. Bit-identical
// to ConvolveOverlapAdd.
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

// directKernelMax is the largest "short side" for which the direct
// algorithm beats the FFT strategies. The makespan evaluation's hot
// shape — a work grid of thousands of points convolved with a narrow
// duration or communication kernel of a few dozen — sits far below it
// (measured: direct wins up to ~128-point kernels against overlap-add
// on 8192-point signals), and the direct sum is exact, so the cutoff
// also removes FFT round-off from the narrow-kernel path.
const directKernelMax = 96

// Convolve picks a convolution strategy based on operand sizes: direct
// when either operand is short or the product is small (the direct sum
// is both faster and exact there), overlap-add when one operand is much
// shorter than the other, plain FFT otherwise.
func Convolve(a, b []float64) []float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return nil
	}
	return ConvolveInto(make([]float64, la+lb-1), a, b, &ConvScratch{})
}

// ConvolveInto is Convolve writing into out, which must have length
// len(a)+len(b)-1; ws carries the FFT scratch. The strategy choice and
// the arithmetic are identical to Convolve, so the results agree
// bit-for-bit.
func ConvolveInto(out, a, b []float64, ws *ConvScratch) []float64 {
	la, lb := len(a), len(b)
	switch {
	case la == 0 || lb == 0:
		return nil
	case la <= directKernelMax || lb <= directKernelMax || la*lb <= 4096:
		return convolveDirectInto(out, a, b)
	case la >= 8*lb || lb >= 8*la:
		return convolveOverlapAddInto(out, a, b, ws)
	default:
		return convolveFFTInto(out, a, b, ws)
	}
}
