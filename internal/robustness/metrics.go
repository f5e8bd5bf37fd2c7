// Package robustness implements the eight robustness metrics compared
// by the paper (§IV): expected makespan, makespan standard deviation,
// makespan differential entropy, average slack, slack standard
// deviation, average lateness, and the absolute and relative
// probabilistic metrics. Metrics can be computed from an analytic
// makespan distribution (stochastic.Numeric) or directly from
// Monte-Carlo samples.
package robustness

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// dagTask keeps the signatures below readable.
type dagTask = dag.Task

// Params holds the metric hyper-parameters of §V.
type Params struct {
	Delta    float64 // absolute probabilistic half-width (paper: 0.1)
	Gamma    float64 // relative probabilistic factor (paper: 1.0003)
	GridSize int     // density grid (paper: 64); <= 0 selects the default
}

// DefaultParams returns the paper's δ = 0.1, γ = 1.0003.
func DefaultParams() Params { return Params{Delta: 0.1, Gamma: 1.0003} }

// Metrics is the paper's metric vector for one schedule. All metrics
// are reported raw (not inverted); the experiment layer flips the
// slack and the probabilistic metrics so that smaller is always better
// when correlating, exactly as the paper does for its plots.
type Metrics struct {
	Makespan    float64 // E(M), the expected makespan
	StdDev      float64 // σ_M, makespan standard deviation
	Entropy     float64 // h(M), differential entropy of the makespan
	AvgSlack    float64 // S = Σ_i (M − Bl(i) − Tl(i)) on mean durations
	SlackStdDev float64 // σ_S, standard deviation of per-task slacks
	Lateness    float64 // L = E(M | M > E(M)) − E(M)
	AbsProb     float64 // A(δ) = P(E(M)−δ ≤ M ≤ E(M)+δ)
	RelProb     float64 // R(γ) = P(E(M)/γ ≤ M ≤ γ·E(M))
}

// MetricNames lists the metric labels in Vector order, matching the
// figures of the paper.
var MetricNames = []string{
	"Average Makespan",
	"Makespan std. dev.",
	"Makespan entropy",
	"Average Slack",
	"Slack std. dev.",
	"Average lateness",
	"Abs. probabilistic",
	"Rel. probabilistic",
}

// NumMetrics is the size of the metric vector.
const NumMetrics = 8

// Vector returns the metrics in MetricNames order.
func (m Metrics) Vector() [NumMetrics]float64 {
	return [NumMetrics]float64{
		m.Makespan, m.StdDev, m.Entropy, m.AvgSlack,
		m.SlackStdDev, m.Lateness, m.AbsProb, m.RelProb,
	}
}

// RelProbByMakespan is the §VII variant: the relative probabilistic
// metric divided by the expected makespan, which the paper shows is
// almost perfectly correlated with σ_M once inverted.
func (m Metrics) RelProbByMakespan() float64 {
	if m.Makespan == 0 { //reprovet:allow floateq division guard: only an exactly-zero makespan is undefined
		return 0
	}
	return m.RelProb / m.Makespan
}

// String renders a short human-readable summary.
func (m Metrics) String() string {
	return fmt.Sprintf("E(M)=%.4g σ=%.4g h=%.4g S=%.4g σS=%.4g L=%.4g A=%.4g R=%.4g",
		m.Makespan, m.StdDev, m.Entropy, m.AvgSlack, m.SlackStdDev, m.Lateness, m.AbsProb, m.RelProb)
}

// FromDistribution computes the five distribution-based metrics from an
// analytic makespan distribution and fills the slack metrics from the
// schedule's mean-value disjunctive graph, which it rebuilds per call.
// This is the retained reference path; pipelines that already hold a
// compiled evaluation model (makespan.EvalModel) use
// FromDistributionSlacks with the model's slack vector instead, which
// is identical without the rebuild.
func FromDistribution(scen *platform.Scenario, s *schedule.Schedule, rv *stochastic.Numeric, p Params) (Metrics, error) {
	var m Metrics
	fillDistribution(&m, rv, p)
	if err := fillSlack(scen, s, &m); err != nil {
		return m, err
	}
	return m, nil
}

// FromDistributionSlacks computes the metric vector from an analytic
// makespan distribution and a precomputed per-task slack vector (§IV,
// mean durations) — the compiled-evaluation form of FromDistribution.
func FromDistributionSlacks(rv *stochastic.Numeric, slacks []float64, p Params) Metrics {
	var m Metrics
	fillDistribution(&m, rv, p)
	applySlacks(&m, slacks)
	return m
}

// fillDistribution fills the five distribution-based metrics.
func fillDistribution(m *Metrics, rv *stochastic.Numeric, p Params) {
	m.Makespan = rv.Mean()
	m.StdDev = rv.StdDev()
	m.Entropy = rv.Entropy()
	m.Lateness = latenessOf(rv, m.Makespan)
	m.AbsProb = probWithin(rv, m.Makespan-p.Delta, m.Makespan+p.Delta)
	if p.Gamma > 0 {
		m.RelProb = probWithin(rv, m.Makespan/p.Gamma, m.Makespan*p.Gamma)
	}
}

// applySlacks fills the two slack metrics from a per-task slack vector.
func applySlacks(m *Metrics, slacks []float64) {
	m.AvgSlack = numeric.KahanSum(slacks)
	m.SlackStdDev = numeric.StdDev(slacks)
}

// FromSamples computes the metrics from Monte-Carlo makespan samples;
// the entropy uses a histogram density with the same grid size as the
// analytic pipeline. This is the retained reference path: it rebuilds
// the schedule's disjunctive graph to derive the slack metrics.
// Pipelines that already hold a compiled evaluation model
// (makespan.EvalModel) call its MetricsFromSamples, which pairs
// FromSamplesSlacks with the model's slack vector — identical values,
// no rebuild.
func FromSamples(scen *platform.Scenario, s *schedule.Schedule, emp *stochastic.Empirical, p Params) (Metrics, error) {
	var m Metrics
	fillSampleDist(&m, emp, p)
	if err := fillSlack(scen, s, &m); err != nil {
		return m, err
	}
	return m, nil
}

// FromSamplesSlacks computes the metric vector from Monte-Carlo
// makespan samples and a precomputed per-task slack vector (§IV, mean
// durations) — the compiled-evaluation form of FromSamples.
func FromSamplesSlacks(emp *stochastic.Empirical, slacks []float64, p Params) Metrics {
	var m Metrics
	fillSampleDist(&m, emp, p)
	applySlacks(&m, slacks)
	return m
}

// fillSampleDist fills the distribution-based metrics from samples.
func fillSampleDist(m *Metrics, emp *stochastic.Empirical, p Params) {
	m.Makespan = emp.Mean()
	m.StdDev = emp.StdDev()
	m.Entropy = emp.ToNumeric(p.GridSize).Entropy()
	m.Lateness = emp.LatenessAboveMean()
	m.AbsProb = emp.ProbWithin(m.Makespan-p.Delta, m.Makespan+p.Delta)
	if p.Gamma > 0 {
		m.RelProb = emp.ProbWithin(m.Makespan/p.Gamma, m.Makespan*p.Gamma)
	}
}

// latenessOf computes E(M') − E(M) where M' is M conditioned on
// exceeding its mean. The integrand is truncated at the mean, so the
// tail integrals are evaluated on a fine spline-resampled grid over
// [mean, hi] to avoid the discontinuity error a coarse quadrature
// would pick up.
func latenessOf(rv *stochastic.Numeric, mean float64) float64 {
	if rv.IsPoint() || mean >= rv.Hi() {
		return 0
	}
	lo := mean
	if lo < rv.Lo() {
		lo = rv.Lo()
	}
	const fine = 1025
	xs := numeric.Linspace(lo, rv.Hi(), fine)
	h := xs[1] - xs[0]
	mass := rv.PDFOnGrid(xs)
	mom := make([]float64, fine)
	for i, x := range xs {
		mom[i] = x * mass[i]
	}
	pm := numeric.SimpsonUniform(mass, h)
	if pm <= 1e-12 {
		return 0
	}
	return numeric.SimpsonUniform(mom, h)/pm - mean
}

// probWithin evaluates P(lo <= M <= hi) from the CDF.
func probWithin(rv *stochastic.Numeric, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	cdf := rv.CDFTable()
	v := cdf.CDFAt(hi) - cdf.CDFAt(lo)
	return numeric.Clamp(v, 0, 1)
}

// fillSlack computes the slack metrics of §IV on the schedule's
// disjunctive graph with all durations replaced by their means (the
// paper's approximation of the average slack): S = Σ_i s_i with
// s_i = M − Bl(i) − Tl(i), and σ_S the population standard deviation
// of the s_i. (The paper's printed σ_S formula omits the 1/n; any
// affine rescaling is invisible to the Pearson correlations the metric
// is used in.)
func fillSlack(scen *platform.Scenario, s *schedule.Schedule, m *Metrics) error {
	dg, err := s.Disjunctive(scen.G)
	if err != nil {
		return err
	}
	n := scen.G.N()
	nodeW := make([]float64, n)
	for i := 0; i < n; i++ {
		nodeW[i] = scen.MeanTask(dagTask(i), s.Proc[i])
	}
	edgeW := func(from, to dagTask) float64 {
		// Serialization edges carry volume 0 and join same-processor
		// tasks, so their mean communication time is 0.
		return scen.MeanComm(from, to, s.Proc[from], s.Proc[to])
	}
	slacks, err := dg.Slacks(nodeW, edgeW)
	if err != nil {
		return err
	}
	applySlacks(m, slacks)
	return nil
}

// VerifySlackIdentity checks the paper's §V consistency test: the
// bottom level of an entry task on the critical path equals the
// critical-path length, i.e. a zero-slack task exists. Returns the
// critical-path length on mean durations. This is the retained
// map-graph reference; the compiled path is
// makespan.EvalModel.SlackIdentity, which runs the same test on the
// model's flat slack vector.
func VerifySlackIdentity(scen *platform.Scenario, s *schedule.Schedule) (float64, error) {
	dg, err := s.Disjunctive(scen.G)
	if err != nil {
		return 0, err
	}
	n := scen.G.N()
	nodeW := make([]float64, n)
	for i := 0; i < n; i++ {
		nodeW[i] = scen.MeanTask(dagTask(i), s.Proc[i])
	}
	edgeW := func(from, to dagTask) float64 {
		return scen.MeanComm(from, to, s.Proc[from], s.Proc[to])
	}
	slacks, err := dg.Slacks(nodeW, edgeW)
	if err != nil {
		return 0, err
	}
	min := math.Inf(1)
	for _, v := range slacks {
		if v < min {
			min = v
		}
	}
	if min > 1e-6 {
		return 0, fmt.Errorf("robustness: no zero-slack task (min slack %g)", min)
	}
	return dg.CriticalPathLength(nodeW, edgeW)
}
