package stochastic

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 4})
	if e.Len() != 4 || e.Min() != 1 || e.Max() != 4 {
		t.Error("basic stats wrong")
	}
	if !almostEqual(e.Mean(), 2.5, 1e-12) {
		t.Errorf("mean = %g, want 2.5", e.Mean())
	}
	if !almostEqual(e.Variance(), 1.25, 1e-12) {
		t.Errorf("variance = %g, want 1.25", e.Variance())
	}
}

func TestEmpiricalCDF(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := e.CDFAt(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestEmpiricalQuantile(t *testing.T) {
	e := NewEmpirical([]float64{10, 20, 30, 40, 50})
	if e.Quantile(0.5) != 30 {
		t.Errorf("median = %g, want 30", e.Quantile(0.5))
	}
	if e.Quantile(0) != 10 || e.Quantile(1) != 50 {
		t.Error("extreme quantiles wrong")
	}
}

func TestEmpiricalToNumericRecoversMoments(t *testing.T) {
	b := NewBetaUL(10, 1.5)
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = b.Sample(rng)
	}
	e := NewEmpirical(samples)
	rv := e.ToNumeric(64)
	if !almostEqual(rv.Mean(), b.Mean(), 0.03) {
		t.Errorf("histogram mean = %g, want %g", rv.Mean(), b.Mean())
	}
	if !almostEqual(rv.StdDev(), math.Sqrt(b.Variance()), 0.05) {
		t.Errorf("histogram stddev = %g, want %g", rv.StdDev(), math.Sqrt(b.Variance()))
	}
}

func TestEmpiricalDegenerate(t *testing.T) {
	if !NewEmpirical([]float64{5, 5, 5}).ToNumeric(64).IsPoint() {
		t.Error("constant samples should convert to a point")
	}
	if NewEmpirical(nil).ToNumeric(64).Lo() != 0 {
		t.Error("empty empirical should convert to point 0")
	}
	if NewEmpirical(nil).CDFAt(1) != 0 {
		t.Error("empty CDF should be 0")
	}
}

// The kinds of sample sortInput mixes in, one bit of its kinds argument
// each. The first five keep every sample at +0 or above and not NaN,
// which NewEmpirical radix-sorts; each of the last three makes it fall
// back to sort.Float64s.
const (
	sortTies      = 1 << iota // repeats of earlier samples
	sortSubnormal             // subnormals
	sortInfZero               // +Inf and +0
	sortWide                  // any finite value >= +0
	sortNarrow                // values that differ in their last bits only
	sortNegative
	sortNegZero
	sortNaN

	sortFallback = sortNegative | sortNegZero | sortNaN
)

// sortInput returns n samples seeded by seed: each is, with even odds,
// one of the eight kinds or a makespan-like value in [100, 150); a kind
// missing from kinds also gives a makespan-like value.
func sortInput(seed int64, n int, kinds uint8) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		switch k := uint8(1) << rng.Intn(9); {
		case kinds&k == 0 || (k == sortTies && i == 0):
			xs[i] = 100 + 50*rng.Float64()
		case k == sortTies:
			xs[i] = xs[rng.Intn(i)]
		case k == sortSubnormal:
			xs[i] = math.Float64frombits(rng.Uint64() >> 12)
		case k == sortInfZero:
			xs[i] = [2]float64{0, math.Inf(1)}[rng.Intn(2)]
		case k == sortWide:
			xs[i] = math.Float64frombits(rng.Uint64() % math.Float64bits(math.Inf(1)))
		case k == sortNarrow:
			xs[i] = math.Float64frombits(math.Float64bits(100) + rng.Uint64()%16)
		case k == sortNegative:
			xs[i] = -1 - rng.Float64()
		case k == sortNegZero:
			xs[i] = math.Copysign(0, -1)
		case k == sortNaN:
			xs[i] = math.NaN()
		}
	}
	return xs
}

// FuzzEmpiricalMatchesSortFloat64s requires NewEmpirical's sort to be
// bit-equal to sort.Float64s on any mix of sample kinds, and radixSort
// started at the top digit to be too where every sample is >= +0 and
// not NaN.
func FuzzEmpiricalMatchesSortFloat64s(f *testing.F) {
	for k := 0; k < 8; k++ {
		f.Add(int64(k), uint16(3000), uint8(1)<<k)
	}
	f.Add(int64(8), uint16(65535), uint8(sortTies|sortSubnormal|sortInfZero|sortWide|sortNarrow))
	f.Add(int64(9), uint16(65535), uint8(0))
	f.Add(int64(10), uint16(radixCutoff-1), uint8(0))
	f.Add(int64(11), uint16(1), uint8(0))
	f.Add(int64(12), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kinds uint8) {
		xs := sortInput(seed, int(n), kinds)
		want := slices.Clone(xs)
		sort.Float64s(want)
		got := map[string][]float64{"NewEmpirical": NewEmpirical(slices.Clone(xs)).Sorted()}
		if kinds&sortFallback == 0 {
			top := slices.Clone(xs)
			radixSort(top, 64-radixBits)
			got["radixSort"] = top
		}
		for name, g := range got {
			for i := range want {
				if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: sample %d of %d = %v, sort.Float64s %v", name, i, n, g[i], want[i])
				}
			}
		}
	})
}

// NewEmpirical sorts in place and allocates only the Empirical it
// returns: the radix sort keeps its bucket offsets on the stack. A
// least-significant-digit radix sort with a pooled scratch buffer the
// size of the samples raised fig1-mc's peak_rss_mb from 12.4-13.7 to
// 16.1-19.1 MB and its alloc_mb by about 14%.
func TestNewEmpiricalAllocatesOnlyItsStruct(t *testing.T) {
	xs := sortInput(1, 100000, 0)
	work := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(5, func() {
		copy(work, xs)
		NewEmpirical(work)
	})
	if allocs > 1 {
		t.Errorf("NewEmpirical allocates %g times on 100 000 samples, want at most 1", allocs)
	}
}
