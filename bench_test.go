package repro

// One benchmark per table/figure of the paper (BenchmarkFig1..9), plus
// micro-benchmarks, ablation benches for the numeric substrate, the
// Monte-Carlo kernel in each sampler mode (BenchmarkKernel*), Fig. 1's
// Monte-Carlo distance (BenchmarkKSAgainstEmpirical) and sort
// (BenchmarkNewEmpirical), and BIL on wide FFTs (BenchmarkBILWide).
// Run: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/stochastic"
)

// benchScenario builds the Fig. 3 case (Cholesky 10 tasks, 3 procs).
func benchScenario(b *testing.B) *Scenario {
	b.Helper()
	scen, err := NewCholeskyScenario(3, 3, 1.1, 42)
	if err != nil {
		b.Fatal(err)
	}
	return scen
}

// --- Figure benches -----------------------------------------------------

func BenchmarkFig1(b *testing.B) {
	cfg := experiment.BenchConfig()
	cfg.MCRealizations = 2000
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1(cfg, []int{10, 30}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	cfg := experiment.BenchConfig()
	cfg.MCRealizations = 2000
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCase(b *testing.B, spec experiment.CaseSpec) {
	b.Helper()
	cfg := experiment.BenchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCase(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) { benchCase(b, experiment.Fig3Case(1)) }
func BenchmarkFig4(b *testing.B) { benchCase(b, experiment.Fig4Case(1)) }
func BenchmarkFig5(b *testing.B) { benchCase(b, experiment.Fig5Case(1)) }

func BenchmarkFig6(b *testing.B) {
	cfg := experiment.BenchConfig()
	cfg.Schedules = 15
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6Run(context.Background(), cfg, experiment.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig7(256)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig8(10)
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := experiment.BenchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benches ---------------------------------------------

// BenchmarkAblationGridSize sweeps the density grid resolution (the
// paper settled on 64 points).
func BenchmarkAblationGridSize(b *testing.B) {
	scen := benchScenario(b)
	s := RandomSchedule(scen, 7)
	for _, grid := range []int{32, 64, 128, 256} {
		b.Run(itoa(grid), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := makespan.Evaluate(scen, s, makespan.Classic, grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaxMethod contrasts the numeric CDF-product maximum
// with Clark's two-moment approximation.
func BenchmarkAblationMaxMethod(b *testing.B) {
	x := stochastic.FromDist(stochastic.NewBetaUL(10, 1.4), 64)
	y := stochastic.FromDist(stochastic.NewBetaUL(11, 1.3), 64)
	b.Run("cdf-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MaxWith(y, 64)
		}
	})
	scen := benchScenario(b)
	s := RandomSchedule(scen, 3)
	b.Run("clark-spelde-full-dag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := makespan.NewEvalCache(scen, 0).Model(s)
			if err != nil {
				b.Fatal(err)
			}
			m.Spelde()
		}
	})
}

func BenchmarkNumericAdd(b *testing.B) {
	x := stochastic.FromDist(stochastic.NewBetaUL(10, 1.4), 64)
	y := stochastic.FromDist(stochastic.NewBetaUL(11, 1.3), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add(y, 64)
	}
}

// --- Scheduling benches ----------------------------------------------------

func benchRandom30(b *testing.B) *Scenario {
	b.Helper()
	scen, err := NewRandomScenario(30, 8, 1.1, 4)
	if err != nil {
		b.Fatal(err)
	}
	return scen
}

func BenchmarkHEFT(b *testing.B) {
	scen := benchRandom30(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.HEFT(scen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBIL(b *testing.B) {
	scen := benchRandom30(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.BIL(scen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBILWide schedules FFT butterflies on 8 processors, the
// graphs whose wide ready sets make BIL's priority upkeep dominate:
// 1 024 tasks, and the 11 264 of the heuristics-large benchmark
// workload (skipped with -short).
func BenchmarkBILWide(b *testing.B) {
	for _, n := range []int{1024, 11264} {
		b.Run("N="+itoa(n), func(b *testing.B) {
			if n > 1024 && testing.Short() {
				b.Skip("the 11 264-task FFT is skipped with -short")
			}
			scen, err := NewScenario(experiment.FFTFamily, n, 8, 1.1, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := heuristics.BIL(scen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHBMCT(b *testing.B) {
	scen := benchRandom30(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.HBMCT(scen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDHEFT(b *testing.B) {
	scen := benchRandom30(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.SDHEFT(scen, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scheduler kernels at scale --------------------------------------------
//
// The compiled CostModel/timeline heuristics on 8-processor Cholesky
// scenarios of 1 000 to 50 000 tasks. CI archives the series as
// absolute numbers. Gated behind -short: the 50k graphs take seconds
// per iteration.

var schedulerBenchSizes = []int{1000, 10000, 50000}

func benchSchedulerScenario(b *testing.B, n int) *Scenario {
	b.Helper()
	scen, err := NewScenario("cholesky", n, 8, 1.1, 42)
	if err != nil {
		b.Fatal(err)
	}
	return scen
}

func benchSchedulerSizes(b *testing.B, fn func(*Scenario) (HeuristicResult, error), sizes []int) {
	b.Helper()
	if testing.Short() {
		b.Skip("large-N scheduler benches are skipped with -short")
	}
	for _, n := range sizes {
		b.Run("N="+itoa(n), func(b *testing.B) {
			scen := benchSchedulerScenario(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fn(scen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSchedulerHEFT(b *testing.B) {
	benchSchedulerSizes(b, heuristics.HEFT, schedulerBenchSizes)
}

func BenchmarkSchedulerHBMCT(b *testing.B) {
	benchSchedulerSizes(b, heuristics.HBMCT, schedulerBenchSizes)
}

func BenchmarkRandomSchedule(b *testing.B) {
	scen := benchRandom30(b)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.RandomSchedule(scen, rng)
	}
}

// --- Case evaluation at scale ----------------------------------------------
//
// The compiled EvalCache/EvalModel pipeline: each iteration evaluates
// the full metric vector of evalCaseSchedules random schedules of one
// Cholesky case, the per-case unit of work of the paper's core
// experiment. CI archives the series as absolute numbers. Gated behind
// -short: a 10k iteration takes seconds.

var evalBenchSizes = []int{1000, 10000}

const evalCaseSchedules = 2

func benchEvalSchedules(b *testing.B, n int) (*Scenario, []*schedule.Schedule) {
	b.Helper()
	scen, err := NewScenario("cholesky", n, 8, 1.1, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	return scen, heuristics.RandomSchedules(scen, evalCaseSchedules, rng)
}

func BenchmarkEvalCase(b *testing.B) {
	if testing.Short() {
		b.Skip("large-N evaluation benches are skipped with -short")
	}
	p := robustness.DefaultParams()
	for _, n := range evalBenchSizes {
		b.Run("N="+itoa(n), func(b *testing.B) {
			scen, scheds := benchEvalSchedules(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache := makespan.NewEvalCache(scen, 64)
				for _, s := range scheds {
					m, err := cache.Model(s)
					if err != nil {
						b.Fatal(err)
					}
					_ = m.Metrics(p)
				}
			}
		})
	}
}

// --- Evaluation accuracy: fast preset vs reference --------------------------
//
// The acceptance pair of the EvalAccuracy knob: both legs run the
// compiled EvalCache pipeline on the 10k-task sweep case, the Reference
// leg at the paper's bit-exact contract and the other at the fast
// preset (64-point densities, 256-point work-grid cap). cmd/benchguard
// compares the pair in CI (-series '^EvalAccuracyFast') and fails below
// 2x at n = 10000.

func benchEvalAccuracy(b *testing.B, acc stochastic.EvalAccuracy) {
	b.Helper()
	if testing.Short() {
		b.Skip("large-N accuracy benches are skipped with -short")
	}
	b.Run("N=10000", func(b *testing.B) {
		scen, scheds := benchEvalSchedules(b, 10000)
		p := robustness.DefaultParams()
		p.GridSize = acc.Canon().GridSize
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := makespan.NewEvalCacheAccuracy(scen, acc)
			for _, s := range scheds {
				m, err := cache.Model(s)
				if err != nil {
					b.Fatal(err)
				}
				_ = m.Metrics(p)
			}
		}
	})
}

func BenchmarkEvalAccuracyFast(b *testing.B) { benchEvalAccuracy(b, stochastic.AccuracyFast) }

func BenchmarkEvalAccuracyFastReference(b *testing.B) {
	benchEvalAccuracy(b, stochastic.AccuracyReference)
}

// --- Evaluation benches ------------------------------------------------------

func BenchmarkEvaluateClassic(b *testing.B) {
	scen := benchRandom30(b)
	s := RandomSchedule(scen, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := makespan.Evaluate(scen, s, makespan.Classic, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateSpelde(b *testing.B) {
	scen := benchRandom30(b)
	s := RandomSchedule(scen, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := makespan.Evaluate(scen, s, makespan.Spelde, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Monte-Carlo kernel ----------------------------------------------------
//
// The compiled batch kernel on the Fig. 3 Cholesky scenario, in each
// sampler mode. Each iteration draws benchMCCount realizations;
// per-realization cost is reported as ns/real.

const benchMCCount = 10000

// benchSim builds the Fig. 3 Cholesky simulator the kernel benches
// share.
func benchSim(b *testing.B) *schedule.Simulator {
	b.Helper()
	scen := benchScenario(b)
	s := RandomSchedule(scen, 5)
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func reportPerRealization(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchMCCount, "ns/real")
}

func benchKernel(b *testing.B, mode stochastic.SamplerMode) {
	sim := benchSim(b)
	k := sim.Compile(mode)
	out := make([]float64, benchMCCount)
	k.RealizationsInto(out, 0, schedule.KernelOptions{}) // warm the worker pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RealizationsInto(out, int64(i), schedule.KernelOptions{})
	}
	reportPerRealization(b)
}

func BenchmarkKernelExact(b *testing.B) { benchKernel(b, stochastic.SamplerExact) }
func BenchmarkKernelTable(b *testing.B) { benchKernel(b, stochastic.SamplerTable) }

// BenchmarkKSAgainstEmpirical times Fig. 1's distance alone: the exact
// KS distance between the Fig. 3 Cholesky schedule's Classic density
// and 100 000 table-mode realizations of it.
func BenchmarkKSAgainstEmpirical(b *testing.B) {
	sim := benchSim(b)
	rv, err := makespan.Evaluate(sim.Scenario(), sim.Schedule(), makespan.Classic, stochastic.DefaultGridSize)
	if err != nil {
		b.Fatal(err)
	}
	emp := sim.Compile(stochastic.SamplerTable).Empirical(100000, 1, schedule.KernelOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ksSink = stats.KSAgainstEmpirical(rv, emp)
	}
}

// ksSink keeps BenchmarkKSAgainstEmpirical's result live.
var ksSink float64

// BenchmarkNewEmpirical times the sort that turns Fig. 1's Monte-Carlo
// samples into an empirical distribution: NewEmpirical on 100 000
// table-mode realizations of the Fig. 3 Cholesky schedule, copied into
// the work slice (about 1% of the time) before each sort.
func BenchmarkNewEmpirical(b *testing.B) {
	samples := benchSim(b).Compile(stochastic.SamplerTable).Realizations(100000, 1, schedule.KernelOptions{})
	work := make([]float64, len(samples))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, samples)
		empSink = stochastic.NewEmpirical(work)
	}
}

// empSink keeps BenchmarkNewEmpirical's result live.
var empSink *stochastic.Empirical

// BenchmarkMetrics times EvalModel.Metrics on a Fig. 3 Cholesky
// schedule: the classical density, the slack vector and the metric
// vector built from them.
func BenchmarkMetrics(b *testing.B) {
	scen := benchScenario(b)
	m, err := makespan.NewEvalCache(scen, 64).Model(RandomSchedule(scen, 5))
	if err != nil {
		b.Fatal(err)
	}
	p := robustness.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Metrics(p)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
