package makespan

import (
	"math/rand"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// Every evaluation method and the Monte-Carlo engine must reject
// schedules that do not fit the scenario.
func TestEvaluatorsRejectBadInput(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)

	incomplete := schedule.New(3, 2) // nothing assigned
	if _, err := Evaluate(scen, incomplete, Classic, 64); err == nil {
		t.Error("classic accepted incomplete schedule")
	}
	if _, err := Evaluate(scen, incomplete, Spelde, 64); err == nil {
		t.Error("spelde accepted incomplete schedule")
	}
	if _, err := MonteCarloWith(scen, incomplete, 10, 1, MCOptions{}); err == nil {
		t.Error("monte carlo accepted incomplete schedule")
	}

	wrongSize := schedule.New(2, 2)
	wrongSize.Assign(0, 0)
	wrongSize.Assign(1, 1)
	if _, err := Evaluate(scen, wrongSize, Classic, 64); err == nil {
		t.Error("classic accepted wrong-size schedule")
	}
}

// Monte Carlo rejects a realization count below 1. Zero realizations
// made an empty sample that a KS distance then read as a perfect match,
// and a negative count panicked.
func TestMonteCarloRejectsCountBelowOne(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)
	s := allOnProc(t, g, 2, 0)
	for _, count := range []int{0, -5} {
		if _, err := MonteCarloWith(scen, s, count, 1, MCOptions{}); err == nil {
			t.Errorf("%d realizations accepted", count)
		}
	}
	if _, err := MonteCarloWith(scen, s, 1, 1, MCOptions{}); err != nil {
		t.Errorf("1 realization: %v", err)
	}
}

// Monte Carlo rejects a sampler mode it does not know: the kernel
// would draw such a mode as a third, undocumented stream, exact
// samplers filled slot-major.
func TestMonteCarloRejectsUnknownSampler(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)
	s := allOnProc(t, g, 2, 0)
	for _, mode := range []stochastic.SamplerMode{2, 7, -1} {
		if _, err := MonteCarloWith(scen, s, 100, 1, MCOptions{Sampler: mode}); err == nil {
			t.Errorf("sampler %v accepted", mode)
		}
	}
}

// Evaluating with per-processor uncertainty must flow through every
// method (extension coverage).
func TestEvaluatorsWithProcUL(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, w := graphgen.Random(12, rng)
	tau, lat := platform.NewUniformNetwork(2, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 2, ETC: platform.GenerateETCFromWeights(w, 2, 0.5, rng), Tau: tau, Lat: lat},
		UL: 1.1,
	}
	noisy, err := scen.WithNoisyProcessors(1.01, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	s := heuristics.RandomSchedule(noisy, rng)
	model := modelFor(t, noisy, s)
	cls, sp := model.Classic(), model.Spelde()
	emp, err := MonteCarloWith(noisy, s, 30000, 7, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cls.Mean(), emp.Mean(), 0.01*emp.Mean()) {
		t.Errorf("classic mean %g vs MC %g under ProcUL", cls.Mean(), emp.Mean())
	}
	if !almostEqual(sp.Mean, emp.Mean(), 0.02*emp.Mean()) {
		t.Errorf("spelde mean %g vs MC %g under ProcUL", sp.Mean, emp.Mean())
	}
}

// A custom oscillating duration family must propagate through the
// classic evaluation and match Monte Carlo.
func TestClassicWithCustomDurFn(t *testing.T) {
	g := graphgen.Chain(3, 0)
	scen := uniformScenario(g, 1, 10, 1.4)
	scen.DurFn = func(min, ul float64) stochastic.Dist {
		return stochastic.Shifted{
			D:   stochastic.NewSpecialWith(min*(ul-1), []float64{0.4, 0.6}),
			Off: min,
		}
	}
	s := allOnProc(t, g, 1, 0)
	rv, err := Evaluate(scen, s, Classic, 128)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarloWith(scen, s, 50000, 9, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rv.Mean(), emp.Mean(), 0.02*emp.Mean()) {
		t.Errorf("classic mean %g vs MC %g with custom DurFn", rv.Mean(), emp.Mean())
	}
	if !almostEqual(rv.StdDev(), emp.StdDev(), 0.1*emp.StdDev()+0.01) {
		t.Errorf("classic std %g vs MC %g with custom DurFn", rv.StdDev(), emp.StdDev())
	}
}
