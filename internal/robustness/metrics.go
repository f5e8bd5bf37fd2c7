// Package robustness implements the eight robustness metrics compared
// by the paper (§IV): expected makespan, makespan standard deviation,
// makespan differential entropy, average slack, slack standard
// deviation, average lateness, and the absolute and relative
// probabilistic metrics. The six distribution metrics are computed
// from an analytic makespan distribution (stochastic.Numeric), the two
// slack metrics from the schedule's per-task slack vector on its
// mean-duration disjunctive graph, which the caller supplies
// (makespan.EvalModel.Slacks).
package robustness

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// Params holds the metric hyper-parameters of §V.
type Params struct {
	Delta    float64 // absolute probabilistic half-width (paper: 0.1)
	Gamma    float64 // relative probabilistic factor (paper: 1.0003)
	GridSize int     // density grid (paper: 64); <= 0 selects the default
}

// DefaultParams returns the paper's δ = 0.1, γ = 1.0003.
func DefaultParams() Params { return Params{Delta: 0.1, Gamma: 1.0003} }

// Check rejects the hyper-parameters the probabilistic metrics are
// undefined for: a δ or γ that is not finite, a negative δ, or a γ
// below 1, which would read A = 0 or R = 0 for every schedule.
func (p Params) Check() error {
	if !(p.Delta >= 0) || math.IsInf(p.Delta, 1) {
		return fmt.Errorf("robustness: δ = %v: want 0 <= δ < +Inf", p.Delta)
	}
	if !(p.Gamma >= 1) || math.IsInf(p.Gamma, 1) {
		return fmt.Errorf("robustness: γ = %v: want 1 <= γ < +Inf", p.Gamma)
	}
	return nil
}

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

// FromDistributionSlacks computes the metric vector from an analytic
// makespan distribution and the schedule's per-task slack vector (§IV,
// mean durations), as makespan.EvalModel.Slacks computes it.
func FromDistributionSlacks(rv *stochastic.Numeric, slacks []float64, p Params) Metrics {
	var m Metrics
	fillDistribution(&m, rv, p)
	applySlacks(&m, slacks)
	return m
}

// fillDistribution fills the six distribution-based metrics.
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

// applySlacks fills the two slack metrics from a per-task slack vector:
// S = Σ_i s_i, and σ_S the population standard deviation of the s_i.
// (The paper's printed σ_S formula omits the 1/n; any affine rescaling
// is invisible to the Pearson correlations the metric is used in.)
func applySlacks(m *Metrics, slacks []float64) {
	m.AvgSlack = numeric.KahanSum(slacks)
	m.SlackStdDev = numeric.StdDev(slacks)
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
