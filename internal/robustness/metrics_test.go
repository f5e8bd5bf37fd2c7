package robustness_test

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/makespan"
	"repro/internal/platform"
	. "repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// simpleScenario: 3-task chain on 2 procs, ETC 10 everywhere.
func simpleScenario(ul float64) (*platform.Scenario, *schedule.Schedule) {
	g := graphgen.Chain(3, 0)
	etc := [][]float64{{10, 10}, {10, 10}, {10, 10}}
	tau, lat := platform.NewUniformNetwork(2, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 2, ETC: etc, Tau: tau, Lat: lat},
		UL: ul,
	}
	s := schedule.New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 0)
	return scen, s
}

// modelMetrics is the metric vector of s through the compiled
// evaluation model: the classical density and the model's slacks.
func modelMetrics(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) Metrics {
	t.Helper()
	m, err := makespan.NewEvalCache(scen, 64).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	return m.Metrics(DefaultParams())
}

func TestMetricsOnNormalDistribution(t *testing.T) {
	// Closed forms for N(µ=100, σ=5): lateness = σ·sqrt(2/π),
	// entropy = ½ln(2πeσ²), A(δ) = 2Φ(δ/σ)−1.
	rv := stochastic.FromDist(stochastic.Normal{Mu: 100, Sigma: 5}, 256)
	p := Params{Delta: 2, Gamma: 1.02}
	m := FromDistributionSlacks(rv, nil, p)
	if !almostEqual(m.Makespan, 100, 0.05) {
		t.Errorf("mean = %g, want 100", m.Makespan)
	}
	if !almostEqual(m.StdDev, 5, 0.05) {
		t.Errorf("std = %g, want 5", m.StdDev)
	}
	wantEntropy := 0.5 * math.Log(2*math.Pi*math.E*25)
	if !almostEqual(m.Entropy, wantEntropy, 0.05) {
		t.Errorf("entropy = %g, want %g", m.Entropy, wantEntropy)
	}
	wantLateness := 5 * math.Sqrt(2/math.Pi)
	if !almostEqual(m.Lateness, wantLateness, 0.1) {
		t.Errorf("lateness = %g, want %g", m.Lateness, wantLateness)
	}
	wantA := 2*stochastic.Normal{Mu: 0, Sigma: 1}.CDF(2.0/5) - 1
	if !almostEqual(m.AbsProb, wantA, 0.01) {
		t.Errorf("A(2) = %g, want %g", m.AbsProb, wantA)
	}
	// R(1.02): P(100/1.02 <= M <= 102) — both bounds ~±2σ/5.
	if m.RelProb <= 0 || m.RelProb >= 1 {
		t.Errorf("R = %g, want in (0,1)", m.RelProb)
	}
}

func TestSlackChainIsZero(t *testing.T) {
	// A chain on one processor has no slack anywhere.
	scen, s := simpleScenario(1.2)
	m := modelMetrics(t, scen, s)
	if !almostEqual(m.AvgSlack, 0, 1e-9) {
		t.Errorf("chain slack = %g, want 0", m.AvgSlack)
	}
	if !almostEqual(m.SlackStdDev, 0, 1e-9) {
		t.Errorf("chain slack std = %g, want 0", m.SlackStdDev)
	}
}

func TestSlackParallelTasks(t *testing.T) {
	// Two independent tasks on two processors, durations 10 and 4
	// (UL=1): makespan 10, slacks {0, 6}. S = 6, σS = 3.
	g := dag.New(2)
	etc := [][]float64{{10, 10}, {4, 4}}
	tau, lat := platform.NewUniformNetwork(2, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 2, ETC: etc, Tau: tau, Lat: lat},
		UL: 1,
	}
	s := schedule.New(2, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	m := modelMetrics(t, scen, s)
	if !almostEqual(m.AvgSlack, 6, 1e-9) {
		t.Errorf("S = %g, want 6", m.AvgSlack)
	}
	if !almostEqual(m.SlackStdDev, 3, 1e-9) {
		t.Errorf("σS = %g, want 3", m.SlackStdDev)
	}
	if !almostEqual(m.Makespan, 10, 1e-9) {
		t.Errorf("E(M) = %g, want 10", m.Makespan)
	}
	// Deterministic: σ, lateness 0; A and R are 1 (mass at the mean).
	if m.StdDev != 0 || m.Lateness != 0 {
		t.Error("deterministic schedule must have zero dispersion")
	}
	if m.AbsProb != 1 || m.RelProb != 1 {
		t.Errorf("A=%g R=%g, want 1", m.AbsProb, m.RelProb)
	}
}

func TestVectorAndNames(t *testing.T) {
	m := Metrics{Makespan: 1, StdDev: 2, Entropy: 3, AvgSlack: 4, SlackStdDev: 5, Lateness: 6, AbsProb: 7, RelProb: 8}
	v := m.Vector()
	for i, want := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		if v[i] != want {
			t.Errorf("vector[%d] = %g, want %g", i, v[i], want)
		}
	}
	if len(MetricNames) != NumMetrics {
		t.Error("MetricNames length mismatch")
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestRelProbByMakespan(t *testing.T) {
	m := Metrics{Makespan: 4, RelProb: 2}
	if m.RelProbByMakespan() != 0.5 {
		t.Error("RelProbByMakespan wrong")
	}
	if (Metrics{}).RelProbByMakespan() != 0 {
		t.Error("zero makespan should not divide")
	}
}

func TestLatenessMonotoneInSpread(t *testing.T) {
	narrow := stochastic.FromDist(stochastic.Normal{Mu: 50, Sigma: 1}, 128)
	wide := stochastic.FromDist(stochastic.Normal{Mu: 50, Sigma: 5}, 128)
	p := DefaultParams()
	mn := FromDistributionSlacks(narrow, nil, p)
	mw := FromDistributionSlacks(wide, nil, p)
	if mn.Lateness >= mw.Lateness {
		t.Errorf("lateness should grow with spread: %g vs %g", mn.Lateness, mw.Lateness)
	}
	if mn.AbsProb <= mw.AbsProb {
		t.Errorf("A(δ) should shrink with spread: %g vs %g", mn.AbsProb, mw.AbsProb)
	}
	if mn.Entropy >= mw.Entropy {
		t.Errorf("entropy should grow with spread: %g vs %g", mn.Entropy, mw.Entropy)
	}
}
