package schedule

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/platform"
	"repro/internal/stochastic"
	"repro/internal/testdigest"
)

// randomSimulator builds a moderately sized random-scenario simulator
// with stochastic durations and cross-processor arcs.
func randomSimulator(t *testing.T, n, m int, ul float64, seed int64) *Simulator {
	t.Helper()
	return randomSimulatorDur(t, n, m, ul, seed, nil)
}

// randomSimulatorDur is randomSimulator with the scenario's DurFn set to
// durFn (nil keeps the paper's Beta model).
func randomSimulatorDur(t *testing.T, n, m int, ul float64, seed int64, durFn func(min, ul float64) stochastic.Dist) *Simulator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, w := graphgen.Random(n, rng)
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	p := &platform.Platform{
		M:   m,
		ETC: platform.GenerateETCFromWeights(w, m, 0.5, rng),
		Tau: tau,
		Lat: lat,
	}
	scen := &platform.Scenario{G: g, P: p, UL: ul, DurFn: durFn}
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

// perSampleRealizations is the per-sample Monte-Carlo engine, serial:
// the oracle of the kernel's exact mode. Realizations are drawn in
// blocks of DefaultBlockSize, block k from an RNG seeded with the k-th
// of blockSeeds. Each realization walks the tasks in disjunctive
// topological order and draws, for every task, its stochastic arcs in
// predecessor order and then its duration; a Dirac arc or duration
// takes its value without a draw.
func perSampleRealizations(sim *Simulator, count int, seed int64) []float64 {
	out := make([]float64, count)
	finish := make([]float64, len(sim.dur))
	rng := rand.New(rand.NewSource(0))
	draw := func(d stochastic.Dist, min float64) float64 {
		if _, isPoint := d.(stochastic.Dirac); isPoint {
			return min
		}
		return d.Sample(rng)
	}
	for k, bs := range blockSeeds(count, DefaultBlockSize, seed) {
		rng.Seed(bs)
		for i := k * DefaultBlockSize; i < min((k+1)*DefaultBlockSize, count); i++ {
			var makespan float64
			for _, t := range sim.order {
				st := 0.0
				if p := sim.prevProc[t]; p >= 0 {
					st = finish[p]
				}
				for _, pi := range sim.preds[t] {
					if arr := finish[pi.pred] + draw(pi.comm, pi.min); arr > st {
						st = arr
					}
				}
				finish[t] = st + draw(sim.dur[t], sim.durMin[t])
				if finish[t] > makespan {
					makespan = finish[t]
				}
			}
			out[i] = makespan
		}
	}
	return out
}

// requireExactMatchesOracle fails unless the kernel's exact mode at
// DefaultBlockSize draws the oracle's count realizations bit for bit.
func requireExactMatchesOracle(t *testing.T, label string, sim *Simulator, count int, seed int64) {
	t.Helper()
	want := perSampleRealizations(sim, count, seed)
	got := sim.Compile(stochastic.SamplerExact).Realizations(count, seed, KernelOptions{})
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, count %d: realization %d = %v, per-sample oracle %v",
				label, count, i, got[i], want[i])
		}
	}
}

type namedSimulator struct {
	name string
	sim  *Simulator
}

// bitIdentitySimulators are the schedules the kernel's frozen results
// are checked on: two random ones, and one that mixes constant and
// sampled durations.
func bitIdentitySimulators(t *testing.T) []namedSimulator {
	t.Helper()
	return []namedSimulator{
		{"random-25x4", randomSimulator(t, 25, 4, 1.3, 3)},
		{"random-40x6", randomSimulator(t, 40, 6, 2.5, 19)},
		{"dirac-durations", randomSimulatorDur(t, 25, 3, 1.3, 31, diracEveryThird)},
	}
}

// The kernel's exact mode at the default block size must reproduce the
// per-sample oracle bit for bit, with sampled and constant durations.
func TestKernelExactBitIdenticalToLegacy(t *testing.T) {
	for _, tc := range bitIdentitySimulators(t) {
		for _, count := range []int{1, 100, DefaultBlockSize, 3000} {
			requireExactMatchesOracle(t, tc.name, tc.sim, count, 42)
		}
	}
}

// floatsDigest hashes the bits of xs in order.
func floatsDigest(xs []float64) string {
	buf := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return testdigest.Sum(buf)
}

// Table mode has no in-tree oracle, so its realizations and their
// sorted empirical summary are frozen as digests: the sampler, its
// random source and the sort may change only if every byte stays. The
// block sizes do and do not divide the counts; the worker counts must
// not matter.
func TestKernelTableDigests(t *testing.T) {
	digests := testdigest.Load(t)
	for _, tc := range bitIdentitySimulators(t) {
		k := tc.sim.Compile(stochastic.SamplerTable)
		for _, block := range []int{64, DefaultBlockSize, 1024} {
			for _, count := range []int{1, 100, DefaultBlockSize, 3000} {
				for _, workers := range []int{1, 2} {
					opt := KernelOptions{BlockSize: block, Workers: workers}
					label := fmt.Sprintf("%s/b%d/n%d/w%d", tc.name, block, count, workers)
					digests.Check(t, label+"/realizations", floatsDigest(k.Realizations(count, 42, opt)))
					digests.Check(t, label+"/sorted", floatsDigest(k.Empirical(count, 42, opt).Sorted()))
				}
			}
		}
	}
}

// FuzzKernelExactMatchesOracle requires the kernel's exact mode to
// match the per-sample oracle on fuzzed random schedules: up to 40
// tasks on up to 6 processors, UL in [1, 3], up to 3 000 realizations,
// with or without diracEveryThird's constant durations.
func FuzzKernelExactMatchesOracle(f *testing.F) {
	f.Add(uint8(25), uint8(4), 1.3, int64(3), uint16(300), false)
	f.Add(uint8(25), uint8(3), 1.3, int64(31), uint16(3000), true)
	f.Add(uint8(1), uint8(1), 1.0, int64(1), uint16(1), false)
	f.Add(uint8(40), uint8(6), 3.0, int64(7), uint16(257), true)
	f.Fuzz(func(t *testing.T, n, m uint8, ul float64, seed int64, count uint16, dirac bool) {
		if math.IsNaN(ul) || math.IsInf(ul, 0) {
			t.Skip("UL not finite")
		}
		var durFn func(min, ul float64) stochastic.Dist
		if dirac {
			durFn = diracEveryThird
		}
		sim := randomSimulatorDur(t, 1+int(n)%40, 1+int(m)%6, 1+math.Mod(math.Abs(ul), 2), seed, durFn)
		requireExactMatchesOracle(t, "fuzz", sim, int(count)%3001, seed)
	})
}

// legacyPass is the kernel's former per-realization timing pass, kept
// verbatim as the oracle of passBlock: it times realization r of an
// m-realization sample block in w.block, using w.finish (n long) as its
// finish vector.
func (k *RealizationKernel) legacyPass(w *kernelWorker, r, m int) float64 {
	buf := w.block
	finish := w.finish
	var makespan float64
	for _, t := range k.order {
		st := 0.0
		if p := k.prevProc[t]; p >= 0 {
			st = finish[p]
		}
		for j := k.predStart[t]; j < k.predStart[t+1]; j++ {
			c := k.predVal[j]
			if s := k.predSlot[j]; s >= 0 {
				c = buf[int(s)*m+r]
			}
			if arr := finish[k.predTask[j]] + c; arr > st {
				st = arr
			}
		}
		d := k.durVal[t]
		if s := k.durSlot[t]; s >= 0 {
			d = buf[int(s)*m+r]
		}
		f := st + d
		finish[t] = f
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// legacyRealizations draws count realizations block by block with the
// kernel's own seeding and sampling, timing each one with legacyPass.
func (k *RealizationKernel) legacyRealizations(count int, seed int64, block int) []float64 {
	out := make([]float64, count)
	w := &kernelWorker{
		src:    stochastic.NewSource(0),
		block:  make([]float64, k.Slots()*min(block, count)),
		finish: make([]float64, k.n),
	}
	for kb, bs := range blockSeeds(count, block, seed) {
		lo := kb * block
		m := min(block, count-lo)
		w.src.Seed(bs)
		k.sampleBlock(w, m)
		for r := 0; r < m; r++ {
			out[lo+r] = k.legacyPass(w, r, m)
		}
	}
	return out
}

// diracEveryThird is a DurFn that makes every duration or arc whose
// minimum truncates to a multiple of 3 deterministic and keeps the
// paper's Beta model for the rest, so a schedule mixes constant and
// sampled slots among its durations and cross-processor arcs.
func diracEveryThird(min, ul float64) stochastic.Dist {
	if min <= 0 || int(min)%3 == 0 {
		return stochastic.Dirac{Value: min}
	}
	return stochastic.NewBetaUL(min, ul)
}

// The task-major block pass must reproduce the per-realization pass bit
// for bit in both sampler modes, at block sizes that do and do not
// divide the count (partial last blocks), on schedules with constant
// arcs (co-located tasks) and constant durations (Dirac tasks).
func TestKernelBlockPassMatchesLegacyPass(t *testing.T) {
	sims := []struct {
		name string
		sim  *Simulator
	}{
		{"random", randomSimulator(t, 25, 4, 1.3, 3)},
		{"dirac-durations", randomSimulatorDur(t, 25, 3, 1.3, 31, diracEveryThird)},
	}
	for _, tc := range sims {
		for _, mode := range []stochastic.SamplerMode{stochastic.SamplerExact, stochastic.SamplerTable} {
			k := tc.sim.Compile(mode)
			var constArcs, constDurs int
			for _, s := range k.predSlot {
				if s < 0 {
					constArcs++
				}
			}
			for _, s := range k.durSlot {
				if s < 0 {
					constDurs++
				}
			}
			if constArcs == 0 || k.Slots() == 0 {
				t.Fatalf("%s: %d constant arcs, %d slots; both kinds must be exercised", tc.name, constArcs, k.Slots())
			}
			if tc.name == "dirac-durations" && (constDurs == 0 || constDurs == k.n) {
				t.Fatalf("%s: %d of %d durations constant; want a mix", tc.name, constDurs, k.n)
			}
			for _, block := range []int{1, 7, DefaultBlockSize, 1000} {
				for _, count := range []int{1, 255, 3000} {
					want := k.legacyRealizations(count, 42, block)
					got := k.Realizations(count, 42, KernelOptions{BlockSize: block, Workers: 2})
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s, mode %v, block %d, count %d: realization %d = %v, legacy pass %v",
								tc.name, mode, block, count, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// A block size beyond the realization count must size the worker
// buffers by the realizations drawn: one block of count realizations,
// the same bits as BlockSize == count.
func TestKernelHugeBlockSize(t *testing.T) {
	sim := randomSimulator(t, 25, 4, 1.3, 3)
	for _, mode := range []stochastic.SamplerMode{stochastic.SamplerExact, stochastic.SamplerTable} {
		k := sim.Compile(mode)
		want := k.Realizations(100, 7, KernelOptions{BlockSize: 100})
		for _, block := range []int{1 << 40, math.MaxInt} {
			got := k.Realizations(100, 7, KernelOptions{BlockSize: block})
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("mode %v, block %d: realization %d = %v, want %v (BlockSize 100)",
						mode, block, i, got[i], want[i])
				}
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

// Kernel workers are pooled across kernels, so a worker grown by a
// large kernel serves a small one and a small kernel's worker grows for
// a large one. Two kernels of different sizes, in both sampler modes
// and at two realization counts (so two block lengths), run alternately
// from several goroutines; every run must equal its serial bits.
func TestKernelWorkersSharedAcrossKernels(t *testing.T) {
	type run struct {
		label string
		k     *RealizationKernel
		count int
		want  []float64
	}
	sims := []*Simulator{randomSimulator(t, 8, 2, 1.3, 11), randomSimulator(t, 60, 4, 1.3, 12)}
	var runs []run // small and large kernels alternate
	for _, mode := range []stochastic.SamplerMode{stochastic.SamplerExact, stochastic.SamplerTable} {
		for _, count := range []int{100, 1000} {
			for _, sim := range sims {
				k := sim.Compile(mode)
				runs = append(runs, run{
					label: fmt.Sprintf("n=%d mode %v count %d", k.n, mode, count),
					k:     k,
					count: count,
					want:  k.Realizations(count, 9, KernelOptions{Workers: 1}),
				})
			}
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(runs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range runs {
					r := runs[(i+g)%len(runs)]
					got := r.k.Realizations(r.count, 9, KernelOptions{Workers: 2})
					for j := range r.want {
						if math.Float64bits(got[j]) != math.Float64bits(r.want[j]) {
							errs <- fmt.Sprintf("goroutine %d, %s: realization %d = %v, serial %v", g, r.label, j, got[j], r.want[j])
							break
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Empirical sorts the realizations it draws in place; they must be
// exactly Realizations' values in sorted order.
func TestKernelEmpiricalIsSortedRealizations(t *testing.T) {
	sim := randomSimulator(t, 25, 4, 1.3, 7)
	for _, sampler := range []stochastic.SamplerMode{stochastic.SamplerExact, stochastic.SamplerTable} {
		k := sim.Compile(sampler)
		opt := KernelOptions{BlockSize: 64}
		want := k.Realizations(3000, 5, opt)
		sort.Float64s(want)
		got := k.Empirical(3000, 5, opt).Sorted()
		if len(got) != len(want) {
			t.Fatalf("sampler %v: %d samples, want %d", sampler, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sampler %v: sample %d = %v, want %v", sampler, i, got[i], want[i])
			}
		}
	}
}

// Table mode is a different (approximate) sampler, so it cannot be
// bit-identical — but its distribution must match the exact draws'
// within Monte-Carlo tolerance at every block size: close moments and
// a small two-sample KS distance.
func TestKernelTableMatchesLegacyDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	sim := randomSimulator(t, 25, 4, 1.3, 7)
	const count = 60000
	exact := sim.Compile(stochastic.SamplerExact).Empirical(count, 11, KernelOptions{})
	k := sim.Compile(stochastic.SamplerTable)
	for _, block := range []int{64, DefaultBlockSize, 1024} {
		emp := k.Empirical(count, 13, KernelOptions{BlockSize: block})
		relMean := math.Abs(emp.Mean()-exact.Mean()) / exact.Mean()
		if relMean > 0.005 {
			t.Errorf("block %d: mean off by %.3g%%", block, 100*relMean)
		}
		relStd := math.Abs(emp.StdDev()-exact.StdDev()) / exact.StdDev()
		if relStd > 0.05 {
			t.Errorf("block %d: stddev off by %.3g%%", block, 100*relStd)
		}
		// Two-sample KS over the pooled support; noise floor for two
		// 60k samples is ~0.008.
		var ks float64
		for _, q := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			x := exact.Quantile(q)
			if d := math.Abs(emp.CDFAt(x) - exact.CDFAt(x)); d > ks {
				ks = d
			}
			x = emp.Quantile(q)
			if d := math.Abs(emp.CDFAt(x) - exact.CDFAt(x)); d > ks {
				ks = d
			}
		}
		if ks > 0.015 {
			t.Errorf("block %d: KS distance %g between table and exact", block, ks)
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

// Compile takes only the exact and table modes; any other mode panics
// before a slot is built instead of drawing an undocumented stream.
func TestCompileRejectsUnknownSamplerMode(t *testing.T) {
	sim := randomSimulator(t, 20, 3, 1.3, 9)
	for _, mode := range []stochastic.SamplerMode{2, 7, -1} {
		t.Run(fmt.Sprint(int(mode)), func(t *testing.T) {
			want := fmt.Sprintf("schedule: unknown sampler mode %d", int(mode))
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Compile(%d) recovered %v, want the panic %q", int(mode), got, want)
				}
			}()
			sim.Compile(mode)
		})
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

// truncNormal is a Normal whose Support() is an aggressively truncated
// tail — the shape of a heuristic DurFn model: a real mass of draws
// (~2% at 2σ) lands beyond the reported upper bound.
type truncNormal struct{ stochastic.Normal }

func (d truncNormal) Support() (float64, float64) {
	return d.Mu - 2*d.Sigma, d.Mu + 2*d.Sigma
}

// An unbounded-tail DurFn makes realizations overshoot the makespan
// support its Support() reports. The kernel must pass those draws
// through unclamped, so the empirical summary sees the true tail: its
// Max reports the overshoot and its moments stay finite. The makespan
// sums five such draws and passes the sum of their upper ends only
// ~3.8σ out, hence 200 000 realizations.
func TestKernelTailDrawsAreNotClamped(t *testing.T) {
	scen := chainScenario(1.3)
	scen.DurFn = func(min, ul float64) stochastic.Dist {
		return truncNormal{stochastic.Normal{Mu: min, Sigma: min / 4}}
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
	samples := sim.Compile(stochastic.SamplerExact).Realizations(200000, 7, KernelOptions{})
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
	// A worker held across blocks reseeds, samples and times each block
	// without allocating, in either mode. No sync.Pool is involved.
	for _, mode := range []stochastic.SamplerMode{stochastic.SamplerTable, stochastic.SamplerExact} {
		k := sim.Compile(mode)
		w := k.getWorker(DefaultBlockSize)
		ms := make([]float64, DefaultBlockSize)
		seed := int64(0)
		allocs := testing.AllocsPerRun(8, func() {
			seed++
			w.src.Seed(seed)
			k.sampleBlock(w, len(ms))
			k.passBlock(w, ms)
		})
		if allocs != 0 {
			t.Errorf("%v: a held worker allocates %g times per block", mode, allocs)
		}
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop a random share of
		// Puts, so a call below sometimes rebuilds its warm worker.
		return
	}
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
