package stochastic

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Exact-mode samplers must be bit-compatible with looping Sample on
// the same rng, for every concrete distribution family.
func TestExactSamplersBitIdentical(t *testing.T) {
	dists := []Dist{
		Dirac{Value: 3.5},
		Uniform{Lo: 2, Hi: 5},
		Normal{Mu: 10, Sigma: 2},
		NewBetaUL(10, 1.4),
		Shifted{D: Uniform{Lo: 0, Hi: 1}, Off: 7},
		NewSpecial(), // generic fallback
	}
	for _, d := range dists {
		s := NewBatchSampler(d, SamplerExact)
		const n = 500
		want := make([]float64, n)
		rngA := rand.New(rand.NewSource(11))
		for i := range want {
			want[i] = d.Sample(rngA)
		}
		got := make([]float64, n)
		s.SampleN(got, NewSource(11))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: sample %d = %v, want %v (not bit-identical)", d, i, got[i], want[i])
			}
		}
	}
}

// The table sampler's empirical CDF must stay within the advertised
// Kolmogorov bound of the analytic Beta CDF (plus Monte-Carlo noise).
func TestBetaTableSamplerKS(t *testing.T) {
	b := NewBetaUL(10, 1.5)
	s := NewBatchSampler(b, SamplerTable)
	if _, ok := s.(betaTableSampler); !ok {
		t.Fatalf("table mode built %T, want betaTableSampler", s)
	}
	const n = 200000
	samples := make([]float64, n)
	s.SampleN(samples, NewSource(5))
	sort.Float64s(samples)
	var ks float64
	for i, x := range samples {
		if x < b.Lo || x > b.Hi {
			t.Fatalf("sample %g outside support [%g,%g]", x, b.Lo, b.Hi)
		}
		fx := b.CDF(x)
		for _, e := range []float64{float64(i) / n, float64(i+1) / n} {
			if v := math.Abs(fx - e); v > ks {
				ks = v
			}
		}
	}
	// KS noise floor at n=200000 is ~0.003; the table adds <= 1/4096.
	if ks > 0.005 {
		t.Errorf("table sampler KS distance %g too large", ks)
	}
	// Moments should agree with the analytic values well within
	// Monte-Carlo noise.
	var sum, sumsq float64
	for _, x := range samples {
		sum += x
	}
	mean := sum / n
	for _, x := range samples {
		d := x - mean
		sumsq += d * d
	}
	if math.Abs(mean-b.Mean()) > 0.01 {
		t.Errorf("table mean %g, want %g", mean, b.Mean())
	}
	if sd := math.Sqrt(sumsq / n); math.Abs(sd-math.Sqrt(b.Variance())) > 0.01 {
		t.Errorf("table stddev %g, want %g", sd, math.Sqrt(b.Variance()))
	}
}

func TestUnitBetaQuantilesMonotone(t *testing.T) {
	q := unitBetaQuantiles()
	if len(q) != BetaTableSize+1 {
		t.Fatalf("table length %d", len(q))
	}
	if q[0] != 0 || q[BetaTableSize] != 1 {
		t.Fatalf("endpoints %g, %g", q[0], q[BetaTableSize])
	}
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Fatalf("quantiles not monotone at %d", i)
		}
	}
	// Spot-check the median against direct inversion.
	med := q[BetaTableSize/2]
	if v := RegIncBeta(2, 5, med); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("median knot CDF = %g, want 0.5", v)
	}
}

func TestShiftedTableSampler(t *testing.T) {
	base := NewBetaUL(10, 1.5)
	sh := Shifted{D: base, Off: 100}
	s := NewBatchSampler(sh, SamplerTable)
	dst := make([]float64, 1000)
	s.SampleN(dst, NewSource(1))
	for _, x := range dst {
		if x < base.Lo+100 || x > base.Hi+100 {
			t.Fatalf("shifted sample %g outside [%g,%g]", x, base.Lo+100, base.Hi+100)
		}
	}
}

func TestSamplerModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SamplerMode
	}{{"", SamplerExact}, {"exact", SamplerExact}, {"table", SamplerTable}} {
		got, err := ParseSamplerMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSamplerMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSamplerMode("nope"); err == nil {
		t.Error("unknown mode accepted")
	}
	if SamplerExact.String() != "exact" || SamplerTable.String() != "table" {
		t.Error("mode names drifted")
	}
}
