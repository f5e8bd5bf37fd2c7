package stochastic

import (
	"fmt"
	"math/rand"
	"sync"
)

// BatchSampler draws many variates at once. It is the sampling side of
// the compiled realization kernel: specializing the sampler per
// concrete distribution removes the per-sample interface dispatch of
// Dist.Sample from the Monte-Carlo hot loop, and batch-sized calls let
// table-driven samplers amortize their setup over a whole block of
// realizations.
type BatchSampler interface {
	// SampleN fills dst with independent variates drawn from rng.
	SampleN(dst []float64, rng *rand.Rand)
}

// SamplerMode selects how NewBatchSampler realizes a distribution.
type SamplerMode int

const (
	// SamplerExact draws through the distribution's own Sample method,
	// so the stream is bit-compatible with per-sample Dist.Sample
	// calls on the same rng.
	SamplerExact SamplerMode = iota
	// SamplerTable replaces the Beta rejection/ratio sampler with a
	// precomputed inverse-CDF lookup table: one uniform draw and one
	// linear interpolation per variate. Distributions without a table
	// implementation fall back to exact sampling. The table
	// distribution differs from the exact one by at most
	// 1/BetaTableSize in Kolmogorov distance.
	SamplerTable
)

// String names the mode the way flags spell it.
func (m SamplerMode) String() string {
	switch m {
	case SamplerExact:
		return "exact"
	case SamplerTable:
		return "table"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseSamplerMode converts a flag value into a SamplerMode.
func ParseSamplerMode(s string) (SamplerMode, error) {
	switch s {
	case "", "exact":
		return SamplerExact, nil
	case "table":
		return SamplerTable, nil
	default:
		return 0, fmt.Errorf("stochastic: unknown sampler mode %q (want exact or table)", s)
	}
}

// NewBatchSampler returns a batch sampler for d under the given mode.
// Exact-mode streams are bit-identical to looping d.Sample on the same
// rng. Beta, the duration law of the paper's model, calls its concrete
// Sample directly (devirtualized); distributions other than Dirac,
// Beta and Shifted pay one interface call per variate.
func NewBatchSampler(d Dist, mode SamplerMode) BatchSampler {
	switch v := d.(type) {
	case Dirac:
		return constSampler{v.Value}
	case Beta:
		if mode == SamplerTable {
			return newBetaTableSampler(v)
		}
		return betaSampler{v}
	case Shifted:
		return shiftedSampler{inner: NewBatchSampler(v.D, mode), off: v.Off}
	default:
		return genericSampler{d}
	}
}

type constSampler struct{ v float64 }

func (s constSampler) SampleN(dst []float64, _ *rand.Rand) {
	for i := range dst {
		dst[i] = s.v
	}
}

type betaSampler struct{ d Beta }

func (s betaSampler) SampleN(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = s.d.Sample(rng)
	}
}

type shiftedSampler struct {
	inner BatchSampler
	off   float64
}

func (s shiftedSampler) SampleN(dst []float64, rng *rand.Rand) {
	s.inner.SampleN(dst, rng)
	for i := range dst {
		dst[i] += s.off
	}
}

// genericSampler covers distributions with no specialized batch path;
// it pays the interface call per sample.
type genericSampler struct{ d Dist }

func (s genericSampler) SampleN(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = s.d.Sample(rng)
	}
}

// BetaTableSize is the number of cells of the Beta inverse-CDF lookup
// table. The table sampler's Kolmogorov error is bounded by one cell of
// quantile mass, 1/BetaTableSize ≈ 2.4e-4 — far below the Monte-Carlo
// noise floor of the paper's 100 000-realization runs (KS ≈ 4e-3).
const BetaTableSize = 4096

// betaTableCache shares unit-Beta quantile tables across tasks: the
// paper's model uses one shape (2, 5) for every duration and arc, so
// the table is built once per process and every sampler holds only its
// own [Lo, Hi] rescaling.
var betaTableCache sync.Map // [2]float64{alpha, beta} -> []float64

type betaTableSampler struct {
	lo, width float64
	q         []float64 // unit quantiles at i/BetaTableSize, len BetaTableSize+1
}

func newBetaTableSampler(b Beta) betaTableSampler {
	return betaTableSampler{lo: b.Lo, width: b.Hi - b.Lo, q: unitBetaQuantiles(b.Alpha, b.Beta)}
}

func (s betaTableSampler) SampleN(dst []float64, rng *rand.Rand) {
	q := s.q
	for i := range dst {
		// rng.Float64() < 1, so cell < BetaTableSize and cell+1 is in
		// range.
		u := rng.Float64() * BetaTableSize
		cell := int(u)
		frac := u - float64(cell)
		lo := q[cell]
		dst[i] = s.lo + s.width*(lo+(q[cell+1]-lo)*frac)
	}
}

// unitBetaQuantiles returns (building and caching on first use) the
// quantiles of the unit Beta(alpha, beta) at i/BetaTableSize.
func unitBetaQuantiles(alpha, beta float64) []float64 {
	key := [2]float64{alpha, beta}
	if v, ok := betaTableCache.Load(key); ok {
		return v.([]float64)
	}
	q := make([]float64, BetaTableSize+1)
	q[BetaTableSize] = 1
	for i := 1; i < BetaTableSize; i++ {
		// The CDF is monotone, so the previous knot brackets from
		// below and bisection cannot escape [q[i-1], 1].
		q[i] = invRegIncBeta(alpha, beta, float64(i)/BetaTableSize, q[i-1])
	}
	actual, _ := betaTableCache.LoadOrStore(key, q)
	return actual.([]float64)
}

// invRegIncBeta inverts the regularized incomplete beta by bisection:
// the smallest x in [lo, 1] with I_x(a, b) >= u, to ~1e-14 in x.
func invRegIncBeta(a, b, u, lo float64) float64 {
	hi := 1.0
	for i := 0; i < 52; i++ {
		mid := (lo + hi) / 2
		if RegIncBeta(a, b, mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
