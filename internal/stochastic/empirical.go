package stochastic

import (
	"math"
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
// samples afterwards.
func NewEmpirical(samples []float64) *Empirical {
	sort.Float64s(samples)
	return &Empirical{sorted: samples}
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

// CDFAt returns the empirical CDF: the fraction of samples <= x.
func (e *Empirical) CDFAt(x float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))) / float64(n)
}

// Quantile returns the p-quantile by the nearest-rank method.
func (e *Empirical) Quantile(p float64) float64 {
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
