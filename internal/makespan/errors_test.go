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

// All three evaluators must reject schedules that do not fit the
// scenario.
func TestEvaluatorsRejectBadInput(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)

	incomplete := schedule.New(3, 2) // nothing assigned
	if _, err := EvaluateClassic(scen, incomplete, 64); err == nil {
		t.Error("classic accepted incomplete schedule")
	}
	if _, err := EvaluateDodin(scen, incomplete, 64); err == nil {
		t.Error("dodin accepted incomplete schedule")
	}
	if _, err := EvaluateSpelde(scen, incomplete); err == nil {
		t.Error("spelde accepted incomplete schedule")
	}
	if _, err := MonteCarlo(scen, incomplete, 10, 1); err == nil {
		t.Error("monte carlo accepted incomplete schedule")
	}

	wrongSize := schedule.New(2, 2)
	wrongSize.Assign(0, 0)
	wrongSize.Assign(1, 1)
	if _, err := EvaluateClassic(scen, wrongSize, 64); err == nil {
		t.Error("classic accepted wrong-size schedule")
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
	cls, err := EvaluateClassic(noisy, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := EvaluateSpelde(noisy, s)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarlo(noisy, s, 30000, 7)
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
	rv, err := EvaluateClassic(scen, s, 128)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarlo(scen, s, 50000, 9)
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

// Dodin's reduction must finish on series-parallel structures, proving
// the reduction path is exercised, and a chain's mean is the sum of its
// task means.
func TestDodinStrictOnSPStructures(t *testing.T) {
	// Chain on one processor.
	g := graphgen.Chain(4, 0)
	scen := uniformScenario(g, 1, 10, 1.3)
	s := allOnProc(t, g, 1, 0)
	rv, err := EvaluateDodin(scen, s, 64)
	if err != nil {
		t.Fatalf("strict Dodin failed on a chain: %v", err)
	}
	if !almostEqual(rv.Mean(), 4*scen.TaskDist(0, 0).Mean(), 0.1) {
		t.Errorf("chain mean = %g", rv.Mean())
	}
	// Fork-join across processors.
	fj := graphgen.ForkJoin(3, 0)
	scen2 := uniformScenario(fj, 3, 10, 1.5)
	s2 := schedule.New(5, 3)
	s2.Assign(0, 0)
	s2.Assign(1, 0)
	s2.Assign(2, 1)
	s2.Assign(3, 2)
	s2.Assign(4, 0)
	if _, err := EvaluateDodin(scen2, s2, 64); err != nil {
		t.Fatalf("strict Dodin failed on fork-join: %v", err)
	}
}

// On general random schedules the duplication mechanism should usually
// complete too; count how often it succeeds to keep the mechanism
// honest (it must work at least some of the time, or Dodin is dead
// code).
func TestDodinStrictOnRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	succeeded := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		g, w := graphgen.Random(10, rng)
		tau, lat := platform.NewUniformNetwork(3, 1, 0)
		scen := &platform.Scenario{
			G:  g,
			P:  &platform.Platform{M: 3, ETC: platform.GenerateETCFromWeights(w, 3, 0.5, rng), Tau: tau, Lat: lat},
			UL: 1.1,
		}
		s := heuristics.RandomSchedule(scen, rng)
		rv, err := EvaluateDodin(scen, s, 64)
		if IsReductionError(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		succeeded++
		// When it succeeds it must agree with classic within tolerance.
		cls, err := EvaluateClassic(scen, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(rv.Mean(), cls.Mean(), 0.05*cls.Mean()) {
			t.Errorf("trial %d: strict Dodin mean %g vs classic %g", i, rv.Mean(), cls.Mean())
		}
	}
	t.Logf("strict Dodin completed %d/%d random 10-task schedules", succeeded, trials)
	if succeeded == 0 {
		t.Error("strict Dodin never succeeded on random schedules — reduction is dead code")
	}
}
