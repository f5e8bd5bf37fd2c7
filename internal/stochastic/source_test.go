package stochastic

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds the twin source is checked at: zero (which
// math/rand replaces by 89482311), the ends of the 31-bit seed range
// and its multiples, which fold to the same streams, and seeds that
// need the full 64 bits.
var sourceSeeds = []int64{
	0, 1, -1,
	1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1),
	89482311,
	1 << 62, -(1 << 62),
}

// Every rand.Rand method reached through the twin must draw what it
// draws from math/rand's own source, on a fresh source and on one
// reseeded after use, as the kernel's workers reseed theirs per block.
func TestSourceMatchesMathRand(t *testing.T) {
	methods := []struct {
		name string
		draw func(*rand.Rand) uint64
	}{
		{"Uint64", (*rand.Rand).Uint64},
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
	}
	reused := NewSource(7)
	for _, seed := range sourceSeeds {
		for _, m := range methods {
			reused.Seed(seed)
			for _, src := range []*Source{NewSource(seed), reused} {
				want := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					if g, w := m.draw(src.Rand()), m.draw(want); g != w {
						t.Fatalf("seed %d, %s draw %d: %#x, math/rand %#x", seed, m.name, i, g, w)
					}
				}
			}
		}
		requireTableMatchesMathRand(t, seed, []int{1, 7, 256, 1000, 3000})
	}
}

// requireTableMatchesMathRand fails unless the Beta table sampler,
// called once per entry of lens on one source seeded with seed, draws
// what math/rand's Float64 on a source with that seed gives through the
// sampler's interpolation.
func requireTableMatchesMathRand(t *testing.T, seed int64, lens []int) {
	t.Helper()
	s := newBetaTableSampler(NewBetaUL(10, 1.4))
	src := NewSource(seed)
	ref := rand.New(rand.NewSource(seed))
	for call, n := range lens {
		got := make([]float64, n)
		s.SampleN(got, src)
		for i, g := range got {
			if w := tableVariate(s, ref.Float64()); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, call %d (length %d), variate %d: %v, want %v", seed, call, n, i, g, w)
			}
		}
	}
}

// tableVariate is the table sampler's interpolation of the uniform f.
func tableVariate(s betaTableSampler, f float64) float64 {
	u := f * BetaTableSize
	cell := int(u)
	frac := u - float64(cell)
	lo := s.q[cell]
	return s.lo + s.width*(lo+(s.q[cell+1]-lo)*frac)
}

// rand.Rand.Float64 draws again when an Int63 near 2^63 rounds up to
// 1; so must the table sampler's inline copy of it. No seed is known to
// reach that, so both sources are steered there: the next output is
// set to 2^63-1 by its feed word.
func TestTableSamplerRedrawsOne(t *testing.T) {
	s := newBetaTableSampler(NewBetaUL(10, 1.4))
	src, ref := NewSource(3), NewSource(3)
	for _, x := range []*Source{src, ref} {
		tap := (x.tap + srcLen - 1) % srcLen
		feed := (x.feed + srcLen - 1) % srcLen
		x.vec[feed] = srcMask - x.vec[tap]
	}
	if f := float64(int64(srcMask)) / (1 << 63); f != 1 {
		t.Fatalf("2^63-1 maps to %v, not 1: the redraw is not exercised", f)
	}
	got := make([]float64, 2)
	s.SampleN(got, src)
	for i, g := range got {
		if w := tableVariate(s, ref.Rand().Float64()); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("variate %d: %v, want %v", i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand requires the twin to draw math/rand's
// stream at any seed, through Uint64 and through the table sampler
// called in chunks of a fuzzed length.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed, uint16(1000), uint8(7))
	}
	f.Add(int64(42), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, chunk uint8) {
		src := NewSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(n)%4096; i++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, draw %d: %#x, math/rand %#x", seed, i, g, w)
			}
		}
		lens := make([]int, 4)
		for i := range lens {
			lens[i] = 1 + int(chunk)*(i+1)
		}
		requireTableMatchesMathRand(t, seed, lens)
	})
}
