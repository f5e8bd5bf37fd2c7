package heuristics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

func TestSDHEFTProducesValidSchedule(t *testing.T) {
	scen := randomScenario(30, 4, 1.1, 24)
	for _, lambda := range []float64{0, 1, 2} {
		res, err := SDHEFT(scen, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("SDHEFT(λ=%g) schedule invalid: %v", lambda, err)
		}
	}
}

// An invalid λ used to schedule anyway: NaN and +Inf put every task on
// processor 0 (estimate 0 and +Inf), and a negative λ ran as λ = 0.
func TestSDHEFTRejectsInvalidLambda(t *testing.T) {
	scen := randomScenario(30, 4, 1.2, 11)
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		if res, err := SDHEFT(scen, lambda); err == nil {
			t.Errorf("SDHEFT(λ=%v) accepted, estimate %v", lambda, res.Makespan)
		}
	}
}

func TestSDHEFTReducesToHEFTUnderConstantUL(t *testing.T) {
	// With constant UL, σ is proportional to the mean so SDHEFT's cost
	// ordering matches HEFT's and the schedules coincide.
	scen := randomScenario(25, 3, 1.1, 25)
	h, err := HEFT(scen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SDHEFT(scen, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Schedule.Proc {
		if h.Schedule.Proc[i] != s.Schedule.Proc[i] {
			t.Fatalf("task %d: HEFT proc %d vs SDHEFT proc %d (should coincide at constant UL)",
				i, h.Schedule.Proc[i], s.Schedule.Proc[i])
		}
	}
}

func TestSDHEFTDivergesUnderVariableUL(t *testing.T) {
	scen := randomScenario(40, 4, 1.1, 26)
	varScen, err := scen.WithVariableUL(1.0, 2.0, rand.New(rand.NewSource(27)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := HEFT(varScen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SDHEFT(varScen, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range h.Schedule.Proc {
		if h.Schedule.Proc[i] != s.Schedule.Proc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("SDHEFT identical to HEFT under strongly variable UL")
	}
}

func TestVariableULScenario(t *testing.T) {
	scen := randomScenario(10, 2, 1.1, 28)
	v, err := scen.WithVariableUL(1.2, 1.4, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.TaskUL) != 10 {
		t.Fatalf("TaskUL length %d", len(v.TaskUL))
	}
	for i, ul := range v.TaskUL {
		if ul < 1.2 || ul > 1.4 {
			t.Errorf("task %d UL %g outside [1.2,1.4]", i, ul)
		}
		if v.ULFor(dag.Task(i)) != ul {
			t.Errorf("ULFor(%d) mismatch", i)
		}
	}
	// The base scenario is untouched.
	if scen.TaskUL != nil {
		t.Error("WithVariableUL mutated the base scenario")
	}
	// Distinct supports: a task's duration support upper bound follows
	// its own UL.
	d := v.TaskDist(0, 0)
	_, hi := d.Support()
	wantHi := v.P.ETC[0][0] * v.TaskUL[0]
	if hi != wantHi {
		t.Errorf("task 0 support hi = %g, want %g", hi, wantHi)
	}
}

func TestNoisyProcessorsEqualizeMeans(t *testing.T) {
	scen := randomScenario(10, 4, 1.1, 32)
	noisy, err := scen.WithNoisyProcessors(1.02, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(noisy.ProcUL) != 4 {
		t.Fatalf("ProcUL length %d", len(noisy.ProcUL))
	}
	for tsk := 0; tsk < 10; tsk++ {
		// Means on a stable and the corresponding noisy processor
		// derive from rescaled minima; the noisy column's mean per unit
		// of the ORIGINAL ETC must match the stable factor.
		for p := 0; p < 4; p++ {
			d := noisy.TaskDist(dag.Task(tsk), p)
			origMin := scen.P.ETC[tsk][p]
			wantFactor := noisy.DurationAt(1).Mean() // not used; sanity only
			_ = wantFactor
			stableFactor := 1 + (1.02-1)*2.0/7.0
			if got, want := d.Mean(), origMin*stableFactor; got < want*0.999 || got > want*1.001 {
				t.Fatalf("task %d proc %d mean %g, want %g", tsk, p, got, want)
			}
		}
	}
	// Variance differs: noisy processors are wider.
	v0 := noisy.TaskDist(0, 0).Variance()
	v1 := noisy.TaskDist(0, 1).Variance()
	if v1 <= v0 {
		t.Errorf("noisy proc variance %g not larger than stable %g", v1, v0)
	}
	// The base scenario is untouched.
	if scen.ProcUL != nil {
		t.Error("WithNoisyProcessors mutated the base scenario")
	}
}

func TestSDHEFTBeatsHEFTSigmaOnNoisyProcessors(t *testing.T) {
	scen := randomScenario(30, 4, 1.1, 33)
	noisy, err := scen.WithNoisyProcessors(1.02, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := HEFT(noisy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SDHEFT(noisy, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Compare makespan dispersion via Monte Carlo (cheap and assumption-free).
	hSim, err := schedule.NewSimulator(noisy, h.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	sSim, err := schedule.NewSimulator(noisy, s.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	opt := schedule.KernelOptions{}
	hStd := hSim.Compile(stochastic.SamplerExact).Empirical(20000, 1, opt).StdDev()
	sStd := sSim.Compile(stochastic.SamplerExact).Empirical(20000, 2, opt).StdDev()
	if sStd >= hStd {
		t.Errorf("SDHEFT sigma %g not below HEFT sigma %g on noisy processors", sStd, hStd)
	}
}

func TestCustomDurFn(t *testing.T) {
	scen := randomScenario(5, 2, 1.3, 30)
	scen.DurFn = func(min, ul float64) stochastic.Dist {
		return stochastic.Uniform{Lo: min, Hi: min * ul}
	}
	d := scen.TaskDist(0, 0)
	if _, ok := d.(stochastic.Uniform); !ok {
		t.Fatalf("DurFn ignored: got %T", d)
	}
	// Mean matches the uniform mean, not the Beta mean.
	min := scen.P.ETC[0][0]
	want := min * (1 + 1.3) / 2
	if got := scen.TaskDist(0, 0).Mean(); got != want {
		t.Errorf("mean = %g, want %g", got, want)
	}
	// Deterministic minimum still degrades to Dirac.
	scen2 := randomScenario(5, 2, 1.0, 31)
	scen2.DurFn = scen.DurFn
	if _, ok := scen2.TaskDist(0, 0).(stochastic.Dirac); !ok {
		t.Error("UL=1 should bypass DurFn with a Dirac")
	}
}

func TestHeuristicsSingleProcessor(t *testing.T) {
	scen := randomScenario(15, 1, 1.1, 40)
	for _, h := range []struct {
		name string
		fn   func(*platform.Scenario) (Result, error)
	}{
		{"HEFT", HEFT}, {"BIL", BIL}, {"HBMCT", HBMCT},
		{"SDHEFT", func(s *platform.Scenario) (Result, error) { return SDHEFT(s, 1) }},
	} {
		res, err := h.fn(scen)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("%s single-proc schedule invalid: %v", h.name, err)
		}
		// On one processor the makespan is at least the serial work.
		var serial float64
		for t2 := 0; t2 < scen.G.N(); t2++ {
			serial += scen.TaskDist(dag.Task(t2), 0).Mean()
		}
		if res.Makespan < serial-1e-6 {
			t.Errorf("%s: makespan %g below serial bound %g", h.name, res.Makespan, serial)
		}
	}
}
