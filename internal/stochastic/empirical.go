package stochastic

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/numeric"
)

// Empirical is a distribution estimated from Monte-Carlo samples: the
// 100 000-realization ground truth the paper validates the analytic
// makespan evaluation against.
type Empirical struct {
	sorted []float64
}

// NewEmpirical builds an empirical distribution from samples. It takes
// ownership of the slice and sorts it in place: the caller must not use
// samples afterwards. The result is bit-equal to sort.Float64s's.
func NewEmpirical(samples []float64) *Empirical {
	sortSamples(samples)
	return &Empirical{sorted: samples}
}

// sortSamples sorts xs in place, bit-equal to sort.Float64s. When every
// sample is +0 or above and none is NaN (as every makespan is), it runs
// radixSort; otherwise it calls sort.Float64s.
func sortSamples(xs []float64) {
	const inf = 0x7ff0000000000000 // the bits of +Inf
	// The samples agree on every bit above the highest one that some
	// but not all of them set.
	allSet, anySet := uint64(inf), uint64(0)
	for _, x := range xs {
		b := math.Float64bits(x)
		if b > inf {
			// A negative value, -0 or NaN: their bits do not sort as
			// the floats do.
			sort.Float64s(xs)
			return
		}
		allSet &= b
		anySet |= b
	}
	if diff := allSet ^ anySet; diff != 0 {
		radixSort(xs, max(bits.Len64(diff)-radixBits, 0))
	}
}

const (
	radixBits = 8
	// radixCutoff is the length below which radixSort finishes a
	// bucket by insertion sort.
	radixCutoff = 32
)

// radixSort sorts xs, whose values are all +0 or above and not NaN, by
// the bits of their IEEE representations, which then order as the
// floats do; equal floats have equal bits, so the result is bit-equal
// to any other sort's. It is an in-place most-significant-digit radix
// sort (American flag sort): it distributes xs into 2^radixBits buckets
// by the radixBits bits from bit shift up, on every bit above which xs
// must agree, and recurses into each bucket on the next lower digit.
// It allocates nothing: a heap scratch buffer raised the peak memory
// of a Monte-Carlo run by about a third.
func radixSort(xs []float64, shift int) {
	if len(xs) < radixCutoff {
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return
	}
	digit := func(x float64) int {
		return int(math.Float64bits(x)>>shift) & (1<<radixBits - 1)
	}
	// next[d] is where bucket d's next sample goes, end[d] where the
	// bucket ends.
	var next, end [1 << radixBits]int
	for _, x := range xs {
		end[digit(x)]++
	}
	sum := 0
	for d := range end {
		next[d] = sum
		sum += end[d]
		end[d] = sum
	}
	// Place each bucket's slots in turn: a misplaced sample swaps into
	// the next free slot of its own bucket until the slot's own sample
	// comes back.
	for d := range next {
		for next[d] < end[d] {
			x := xs[next[d]]
			for dx := digit(x); dx != d; dx = digit(x) {
				xs[next[dx]], x = x, xs[next[dx]]
				next[dx]++
			}
			xs[next[d]] = x
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	for d := range end {
		if end[d]-lo > 1 {
			radixSort(xs[lo:end[d]], max(shift-radixBits, 0))
		}
		lo = end[d]
	}
}

// Len returns the number of samples.
func (e *Empirical) Len() int { return len(e.sorted) }

// Sorted returns the sorted sample slice (not a copy; do not mutate).
func (e *Empirical) Sorted() []float64 { return e.sorted }

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return numeric.Mean(e.sorted) }

// Variance returns the population sample variance.
func (e *Empirical) Variance() float64 { return numeric.Variance(e.sorted) }

// StdDev returns the sample standard deviation.
func (e *Empirical) StdDev() float64 { return numeric.StdDev(e.sorted) }

// Min returns the smallest sample (0 if empty).
func (e *Empirical) Min() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[0]
}

// Max returns the largest sample (0 if empty).
func (e *Empirical) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// CDFAt returns the empirical CDF: the fraction of samples <= x, and
// NaN for a NaN x.
func (e *Empirical) CDFAt(x float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))) / float64(n)
}

// Quantile returns the p-quantile by the nearest-rank method (p
// clamped to [0,1]), and NaN for a NaN p.
func (e *Empirical) Quantile(p float64) float64 {
	if math.IsNaN(p) {
		return p
	}
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	p = numeric.Clamp(p, 0, 1)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return e.sorted[idx]
}

// ToNumeric converts the empirical distribution into a grid-PDF variable
// by histogramming into gridSize bins and smoothing with a short moving
// average, mirroring how the paper plots "experimental" densities.
func (e *Empirical) ToNumeric(gridSize int) *Numeric {
	if gridSize <= 0 {
		gridSize = DefaultGridSize
	}
	n := len(e.sorted)
	if n == 0 {
		return NewPoint(0)
	}
	lo, hi := e.Min(), e.Max()
	if hi <= lo {
		return NewPoint(lo)
	}
	counts := make([]float64, gridSize)
	w := (hi - lo) / float64(gridSize-1)
	for _, x := range e.sorted {
		// Bins are centred on the grid points so the histogram carries
		// no half-bin mean bias.
		b := int((x-lo)/w + 0.5)
		if b >= gridSize {
			b = gridSize - 1
		}
		counts[b]++
	}
	smoothed := numeric.MovingAverage(counts, 1)
	rv := &Numeric{lo: lo, hi: hi, pdf: smoothed}
	rv.clampNormalize()
	return rv
}
