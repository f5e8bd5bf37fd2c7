// Package repro is the public facade of the reproduction of
// Canon & Jeannot, "A Comparison of Robustness Metrics for Scheduling
// DAGs on Heterogeneous Systems" (HeteroPar'07).
//
// It re-exports the core types and wires the internal packages into a
// small high-level API: build a scenario (task graph + heterogeneous
// platform + uncertainty level), produce schedules (random or with the
// HEFT / BIL / Hyb.BMCT heuristics), evaluate the schedule's makespan
// distribution (analytically or by Monte Carlo), and compute the
// paper's eight robustness metrics.
//
//	scen, _ := repro.NewCholeskyScenario(3, 3, 1.01, 42)
//	res, _ := repro.HEFT(scen)
//	m, _ := repro.ComputeMetrics(scen, res.Schedule)
//	fmt.Println(m)
//
// The full experiment drivers (Figs. 1–9 of the paper) are exposed via
// the experiment sub-package and the cmd/experiments tool.
package repro

import (
	"math/rand"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// Re-exported core types.
type (
	// Graph is a task DAG with communication volumes on its edges.
	Graph = dag.Graph
	// Task identifies a node of a Graph.
	Task = dag.Task
	// Platform is the heterogeneous target (ETC + network matrices).
	Platform = platform.Platform
	// Scenario bundles a graph, a platform and an uncertainty level.
	Scenario = platform.Scenario
	// Schedule is an eager schedule (assignment + per-processor order).
	Schedule = schedule.Schedule
	// Simulator holds a schedule's eager execution: its deterministic
	// timings, and Compile builds its RealizationKernel.
	Simulator = schedule.Simulator
	// Metrics is the paper's eight-metric robustness vector.
	Metrics = robustness.Metrics
	// MetricParams are the δ/γ hyper-parameters of the probabilistic
	// metrics.
	MetricParams = robustness.Params
	// HeuristicResult is a heuristic's schedule plus its makespan
	// estimate.
	HeuristicResult = heuristics.Result
	// MakespanRV is a numerically represented makespan distribution.
	MakespanRV = stochastic.Numeric
	// EmpiricalRV is a Monte-Carlo sampled makespan distribution.
	EmpiricalRV = stochastic.Empirical
	// RealizationKernel is the compiled batch Monte-Carlo engine
	// (built with Simulator.Compile).
	RealizationKernel = schedule.RealizationKernel
	// MCOptions tunes the Monte-Carlo kernel (sampler mode, block
	// size, workers).
	MCOptions = makespan.MCOptions
	// EvalCache is the per-scenario compiled evaluation state: cached
	// discretizations and graph tables shared by every schedule of a
	// case (build one per scenario when evaluating many schedules).
	EvalCache = makespan.EvalCache
	// EvalModel is a per-(scenario, schedule) compiled evaluation
	// context: classical makespan density, Spelde moments, slack
	// vector and the full metric vector, bit-identical to the
	// uncompiled map-graph evaluations.
	EvalModel = makespan.EvalModel
	// EvalAccuracy is the discretization contract of the numeric
	// evaluation stack: density grid size plus the resampling policy
	// (work-grid cap) of the convolution operators. The zero value is
	// the paper's reference contract.
	EvalAccuracy = stochastic.EvalAccuracy
)

// Named evaluation-accuracy presets. AccuracyReference reproduces the
// paper's published contract bit-for-bit; AccuracyFast and
// AccuracyCoarse trade measured per-metric error (see the README's
// "Evaluation accuracy" section) for speed.
var (
	AccuracyReference = stochastic.AccuracyReference
	AccuracyFast      = stochastic.AccuracyFast
	AccuracyCoarse    = stochastic.AccuracyCoarse
)

// ParseEvalAccuracy parses an accuracy spelling: a preset name
// ("reference", "fast", "coarse") or explicit "grid=G[,work=W]" fields.
// Malformed spellings are errors, never a silent fallback.
func ParseEvalAccuracy(s string) (EvalAccuracy, error) {
	return stochastic.ParseEvalAccuracy(s)
}

// Sampler modes re-exported from the stochastic package.
const (
	// SamplerExact draws through each distribution's own sampler, in
	// the per-sample order: tasks in disjunctive topological order,
	// each task's arcs before its duration.
	SamplerExact = stochastic.SamplerExact
	// SamplerTable swaps Beta sampling for precomputed inverse-CDF
	// tables — several times faster, identical within
	// 1/stochastic.BetaTableSize in Kolmogorov distance.
	SamplerTable = stochastic.SamplerTable
)

// Evaluation method names re-exported from the makespan package.
const (
	MethodClassic = makespan.Classic
	MethodDodin   = makespan.Dodin
	MethodSpelde  = makespan.Spelde
)

// Families returns the names of every registered workload family —
// the paper's three application structures plus the elementary join
// and the extended generator set (trees, series-parallel, FFT,
// Strassen, layered STG). Any returned name is valid for NewScenario.
func Families() []string { return experiment.FamilyNames() }

// NewScenario builds a scenario from any registered workload family:
// a graph of ~n tasks (families round the request onto their size
// grid and return an error — never a silently clamped graph — when no
// achievable size is within a factor of two) on m processors with
// uncertainty level ul, which must satisfy 1 <= ul < +Inf.
func NewScenario(family string, n, m int, ul float64, seed int64) (*Scenario, error) {
	return experiment.CaseSpec{
		Name: family, Family: family, N: n, M: m, UL: ul, Seed: seed,
	}.BuildScenario()
}

// NewRandomScenario generates the paper's layered random DAG with n
// tasks (CCR = 0.1, µtask = 20, Vtask = Vmach = 0.5) on m processors
// with uncertainty level ul.
func NewRandomScenario(n, m int, ul float64, seed int64) (*Scenario, error) {
	return NewScenario(experiment.RandomFamily, n, m, ul, seed)
}

// NewCholeskyScenario builds the tiled-Cholesky DAG for a tiles×tiles
// matrix on m processors (tiles = 3 gives the paper's 10-task graph).
func NewCholeskyScenario(tiles, m int, ul float64, seed int64) (*Scenario, error) {
	return NewScenario(experiment.CholeskyFamily, graphgen.CholeskyTaskCount(tiles), m, ul, seed)
}

// NewGaussElimScenario builds the Gaussian-elimination DAG for a
// size×size matrix on m processors (size = 14 gives the paper's
// ~103-task graph).
func NewGaussElimScenario(size, m int, ul float64, seed int64) (*Scenario, error) {
	return NewScenario(experiment.GaussElimFamily, graphgen.GaussElimTaskCount(size), m, ul, seed)
}

// RandomSchedule draws one random eager schedule by the paper's
// three-phase process.
func RandomSchedule(scen *Scenario, seed int64) *Schedule {
	return heuristics.RandomSchedule(scen, rand.New(rand.NewSource(seed)))
}

// HEFT schedules the scenario with Heterogeneous Earliest Finish Time.
func HEFT(scen *Scenario) (HeuristicResult, error) { return heuristics.HEFT(scen) }

// BIL schedules the scenario with the Best Imaginary Level heuristic.
func BIL(scen *Scenario) (HeuristicResult, error) { return heuristics.BIL(scen) }

// HBMCT schedules the scenario with the hybrid BMCT heuristic.
func HBMCT(scen *Scenario) (HeuristicResult, error) { return heuristics.HBMCT(scen) }

// SDHEFT schedules the scenario with the σ-aware list heuristic the
// paper proposes as future work: every cost is mean + lambda·σ. lambda
// must be finite and non-negative; any other value is an error.
func SDHEFT(scen *Scenario, lambda float64) (HeuristicResult, error) {
	return heuristics.SDHEFT(scen, lambda)
}

// MakespanDistribution evaluates the makespan distribution of s with
// the given method on the paper's 64-point grid. MethodDodin returns
// the reduction's error (makespan.IsReductionError) when Dodin's
// reduction cannot finish.
func MakespanDistribution(scen *Scenario, s *Schedule, method makespan.Method) (*MakespanRV, error) {
	return makespan.Evaluate(scen, s, method, 0)
}

// MonteCarlo draws count makespan realizations of s through the
// compiled kernel in exact mode (SamplerExact).
func MonteCarlo(scen *Scenario, s *Schedule, count int, seed int64) (*EmpiricalRV, error) {
	return makespan.MonteCarlo(scen, s, count, seed)
}

// MonteCarloWith is MonteCarlo with explicit kernel options (e.g.
// MCOptions{Sampler: SamplerTable} for bulk runs).
func MonteCarloWith(scen *Scenario, s *Schedule, count int, seed int64, opt MCOptions) (*EmpiricalRV, error) {
	return makespan.MonteCarloWith(scen, s, count, seed, opt)
}

// NewEvalCache builds the compiled evaluation state for a scenario.
// gridSize <= 0 selects the paper's 64-point densities. Evaluating many
// schedules of one scenario through a shared cache discretizes each
// distinct duration/communication distribution once instead of once
// per schedule.
func NewEvalCache(scen *Scenario, gridSize int) *EvalCache {
	return makespan.NewEvalCache(scen, gridSize)
}

// NewEvalCacheAccuracy is NewEvalCache with a full accuracy contract:
// the zero value (or AccuracyReference) reproduces the paper's
// evaluation bit-for-bit, AccuracyFast and AccuracyCoarse trade
// measured error for speed.
func NewEvalCacheAccuracy(scen *Scenario, acc EvalAccuracy) *EvalCache {
	return makespan.NewEvalCacheAccuracy(scen, acc)
}

// ComputeMetrics evaluates the makespan distribution with the
// classical method and returns the paper's eight robustness metrics
// with the default δ = 0.1, γ = 1.0003. It runs through the compiled
// evaluation model; batch callers should hold a NewEvalCache and call
// Model(s).Metrics themselves.
func ComputeMetrics(scen *Scenario, s *Schedule) (Metrics, error) {
	m, err := makespan.NewEvalCache(scen, 0).Model(s)
	if err != nil {
		return Metrics{}, err
	}
	return m.Metrics(robustness.DefaultParams()), nil
}

// ComputeMetricsWith is ComputeMetrics with explicit parameters and a
// pre-computed distribution. The parameters must pass
// MetricParams.Check. The slack metrics come from the compiled
// evaluation model, so the schedule and the scenario's uncertainty
// levels are checked as in ComputeMetrics.
func ComputeMetricsWith(scen *Scenario, s *Schedule, rv *MakespanRV, p MetricParams) (Metrics, error) {
	if err := p.Check(); err != nil {
		return Metrics{}, err
	}
	m, err := makespan.NewEvalCache(scen, p.GridSize).Model(s)
	if err != nil {
		return Metrics{}, err
	}
	return robustness.FromDistributionSlacks(rv, m.Slacks(), p), nil
}

// NewSimulator builds the schedule's simulator: its deterministic
// timings and, through Compile, its Monte-Carlo kernel.
func NewSimulator(scen *Scenario, s *Schedule) (*Simulator, error) {
	return schedule.NewSimulator(scen, s)
}
