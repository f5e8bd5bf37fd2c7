package schedule

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/platform"
	"repro/internal/stochastic"
)

// randomSimulator builds a moderately sized random-scenario simulator
// with stochastic durations and cross-processor arcs.
func randomSimulator(t *testing.T, n, m int, ul float64, seed int64) *Simulator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, w := graphgen.Random(graphgen.DefaultRandomParams(n), rng)
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	p := &platform.Platform{
		M:   m,
		ETC: platform.GenerateETCFromWeights(w, m, 0.5, rng),
		Tau: tau,
		Lat: lat,
	}
	scen := &platform.Scenario{G: g, P: p, UL: ul}
	s := New(n, m)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range order {
		s.Assign(task, rng.Intn(m))
	}
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// The kernel's exact mode at the default block size must reproduce the
// per-sample engine bit for bit.
func TestKernelExactBitIdenticalToLegacy(t *testing.T) {
	sim := randomSimulator(t, 25, 4, 1.3, 3)
	k := sim.Compile(stochastic.SamplerExact)
	for _, count := range []int{1, 100, DefaultBlockSize, 3000} {
		legacy := sim.Realizations(count, 42)
		got := k.Realizations(count, 42, KernelOptions{})
		for i := range legacy {
			if got[i] != legacy[i] {
				t.Fatalf("count %d: realization %d = %v, legacy %v (not bit-identical)",
					count, i, got[i], legacy[i])
			}
		}
	}
}

// Every mode must be deterministic at any worker count and block
// assignment.
func TestKernelDeterministicAcrossWorkers(t *testing.T) {
	sim := randomSimulator(t, 20, 3, 1.4, 5)
	for _, mode := range []stochastic.SamplerMode{stochastic.SamplerExact, stochastic.SamplerTable} {
		k := sim.Compile(mode)
		base := k.Realizations(4000, 9, KernelOptions{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			got := k.Realizations(4000, 9, KernelOptions{Workers: workers})
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("mode %v: workers=%d diverges at %d", mode, workers, i)
				}
			}
		}
	}
}

// Table mode is a different (approximate) sampler, so it cannot be
// bit-identical — but its distribution must match the legacy engine's
// within Monte-Carlo tolerance at every block size: close moments and
// a small two-sample KS distance.
func TestKernelTableMatchesLegacyDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	sim := randomSimulator(t, 25, 4, 1.3, 7)
	const count = 60000
	legacy := stochastic.NewEmpirical(sim.Realizations(count, 11))
	k := sim.Compile(stochastic.SamplerTable)
	for _, block := range []int{64, DefaultBlockSize, 1024} {
		emp := k.Empirical(count, 13, KernelOptions{BlockSize: block})
		relMean := math.Abs(emp.Mean()-legacy.Mean()) / legacy.Mean()
		if relMean > 0.005 {
			t.Errorf("block %d: mean off by %.3g%%", block, 100*relMean)
		}
		relStd := math.Abs(emp.StdDev()-legacy.StdDev()) / legacy.StdDev()
		if relStd > 0.05 {
			t.Errorf("block %d: stddev off by %.3g%%", block, 100*relStd)
		}
		// Two-sample KS over the pooled support; noise floor for two
		// 60k samples is ~0.008.
		var ks float64
		for _, q := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			x := legacy.Quantile(q)
			if d := math.Abs(emp.CDFAt(x) - legacy.CDFAt(x)); d > ks {
				ks = d
			}
			x = emp.Quantile(q)
			if d := math.Abs(emp.CDFAt(x) - legacy.CDFAt(x)); d > ks {
				ks = d
			}
		}
		if ks > 0.015 {
			t.Errorf("block %d: KS distance %g between table and legacy", block, ks)
		}
	}
}

// For the paper's bounded duration models every realization must stay
// inside the makespan support: the simulator's timings with every
// duration at the bottom and at the top of its Support().
func TestKernelBounds(t *testing.T) {
	sim := randomSimulator(t, 15, 3, 1.5, 17)
	k := sim.Compile(stochastic.SamplerTable)
	lo, hi := sim.MinTiming().Makespan, sim.MaxTiming().Makespan
	if hi <= lo {
		t.Fatalf("degenerate bounds [%g, %g]", lo, hi)
	}
	for _, ms := range k.Realizations(5000, 3, KernelOptions{}) {
		if ms < lo-1e-9 || ms > hi+1e-9 {
			t.Fatalf("realization %g outside [%g, %g]", ms, lo, hi)
		}
	}
}

// A deterministic scenario (UL = 1) compiles to a kernel with zero
// stochastic slots whose every realization is the deterministic
// makespan.
func TestKernelFullyDeterministicSchedule(t *testing.T) {
	scen := chainScenario(1)
	s := New(3, 2)
	s.Assign(0, 1)
	s.Assign(1, 0)
	s.Assign(2, 1)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.Compile(stochastic.SamplerTable)
	if k.Slots() != 0 {
		t.Fatalf("deterministic schedule compiled to %d slots", k.Slots())
	}
	want := sim.MinTiming().Makespan
	for _, ms := range k.Realizations(100, 1, KernelOptions{}) {
		if ms != want {
			t.Fatalf("deterministic realization %g, want %g", ms, want)
		}
	}
}

// truncLogNormal is a LogNormal whose Support() is an aggressively
// truncated tail — the shape of a heuristic DurFn model: a real mass
// of draws (~2% at 2σ) lands beyond the reported upper bound.
type truncLogNormal struct{ stochastic.LogNormal }

func (d truncLogNormal) Support() (float64, float64) {
	return math.Exp(d.Mu - 2*d.Sigma), math.Exp(d.Mu + 2*d.Sigma)
}

// An unbounded-tail DurFn makes realizations overshoot the makespan
// support its Support() reports. The kernel must pass those draws
// through unclamped, so the empirical summary sees the true tail: its
// Max reports the overshoot and its moments stay finite.
func TestKernelTailDrawsAreNotClamped(t *testing.T) {
	scen := chainScenario(1.3)
	scen.DurFn = func(min, ul float64) stochastic.Dist {
		return truncLogNormal{stochastic.LogNormal{Mu: math.Log(min), Sigma: 0.5}}
	}
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	hi := sim.MaxTiming().Makespan
	samples := sim.Compile(stochastic.SamplerExact).Realizations(20000, 7, KernelOptions{})
	over := 0
	for _, ms := range samples {
		if ms > hi {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("no realization exceeded the support's upper end %g; the tail is not exercised", hi)
	}
	emp := stochastic.NewEmpirical(samples)
	if emp.Max() <= hi {
		t.Fatalf("Empirical.Max %g within the support's upper end %g after %d overshooting draws", emp.Max(), hi, over)
	}
	if emp.Mean() <= 0 || math.IsNaN(emp.StdDev()) {
		t.Fatalf("moments corrupted: mean %g std %g", emp.Mean(), emp.StdDev())
	}
}

// RealizationsInto must not allocate per realization once the worker
// pool is warm.
func TestKernelSteadyStateAllocations(t *testing.T) {
	sim := randomSimulator(t, 20, 3, 1.3, 29)
	k := sim.Compile(stochastic.SamplerTable)
	out := make([]float64, 4096)
	opt := KernelOptions{Workers: 1}
	k.RealizationsInto(out, 1, opt) // warm the pool
	allocs := testing.AllocsPerRun(5, func() {
		k.RealizationsInto(out, 2, opt)
	})
	// Per call: the block-seed slice and small scheduling state — far
	// below one allocation per realization (4096 realizations/call).
	if allocs > 8 {
		t.Errorf("RealizationsInto allocates %g times per 4096 realizations", allocs)
	}
}
