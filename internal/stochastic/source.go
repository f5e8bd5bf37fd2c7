package stochastic

import (
	"math/rand"
	"sync"
)

// Source is a concrete twin of the generator rand.NewSource returns:
// Mitchell and Reeds' additive lagged-Fibonacci generator
// x_n = x_{n-607} + x_{n-273} (mod 2^64), seeded the same way, so
// rand.New(src) draws the stream of rand.New(rand.NewSource(seed)) for
// every seed, bit for bit. Being concrete, it lets the Monte-Carlo
// kernel's table sampler run the generator inline instead of through
// rand.Rand's per-draw interface call, and it seeds by Mersenne
// reduction instead of Schrage's division. Like math/rand's source, it
// folds every seed into [1, 2^31-2], so at most 2^31-2 streams exist.
//
// A Source is not safe for concurrent use. Make one with NewSource.
type Source struct {
	tap, feed int
	vec       [srcLen]uint64
	rng       *rand.Rand // rand.New(s)
}

const (
	srcLen  = 607       // the longer lag, and the state length
	srcTap  = 273       // the shorter lag
	srcMask = 1<<63 - 1 // Int63 keeps the low 63 bits of Uint64
	// srcMod is the Mersenne prime 2^31-1, the modulus of the
	// Lehmer generator that expands a seed into the state.
	srcMod = 1<<31 - 1
)

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.rng = rand.New(s)
	s.Seed(seed)
	return s
}

// Rand returns the rand.Rand that draws from s, for samplers that take
// one. Every draw through it advances s.
func (s *Source) Rand() *rand.Rand { return s.rng }

// Seed resets s to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seedState(&s.vec, seed, srcCooked())
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & srcMask) }

// seedState writes into vec the state math/rand's source takes for
// seed: each word packs three consecutive values of the Lehmer
// generator x <- 48271·x mod (2^31-1), after 20 discarded ones, and is
// XORed with the matching word of key.
func seedState(vec *[srcLen]uint64, seed int64, key *[srcLen]uint64) {
	seed %= srcMod
	if seed < 0 {
		seed += srcMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = lehmerStep(x)
	}
	for i := range vec {
		x = lehmerStep(x)
		u := x << 40
		x = lehmerStep(x)
		u ^= x << 20
		x = lehmerStep(x)
		u ^= x
		vec[i] = u ^ key[i]
	}
}

// lehmerStep returns 48271·x mod (2^31-1) for x in [0, 2^31-1). The
// product is below 2^47, and 2^31 ≡ 1 (mod 2^31-1), so adding its high
// bits to its low 31 leaves at most one modulus to subtract.
func lehmerStep(x uint64) uint64 {
	p := x * 48271
	p = p&srcMod + p>>31
	if p >= srcMod {
		p -= srcMod
	}
	return p
}

// srcCooked recovers the 607 words math/rand XORs into every seeded
// state (its rngCooked table) from the first 607 outputs of
// rand.NewSource(1). Those outputs overwrite each state word once:
// output k (from 1) adds word tap_k = 607-k to word feed_k = (334-k)
// mod 607 and stores the sum x_k there. For k > 273 the tap word is the
// sum stored at step k-273, so the seeded word at feed_k is
// x_k - x_{k-273}; for k <= 273 the tap word is still the seeded one,
// recovered by the first rule, so the word at feed_k is x_k minus it.
// XORing the seeded words with seedState's unkeyed words for seed 1
// leaves the table.
var srcCooked = sync.OnceValue(func() *[srcLen]uint64 {
	ref := rand.NewSource(1).(rand.Source64)
	var x [srcLen + 1]uint64 // x[k] is output k
	for k := 1; k <= srcLen; k++ {
		x[k] = ref.Uint64()
	}
	feed := func(k int) int { return (srcLen - srcTap - k + srcLen) % srcLen }
	var seeded [srcLen]uint64
	for k := srcTap + 1; k <= srcLen; k++ {
		seeded[feed(k)] = x[k] - x[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		seeded[feed(k)] = x[k] - seeded[srcLen-k]
	}
	var cooked, zero [srcLen]uint64
	seedState(&cooked, 1, &zero)
	for i := range cooked {
		cooked[i] ^= seeded[i]
	}
	return &cooked
})
