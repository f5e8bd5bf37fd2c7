package schedule

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/platform"
	"repro/internal/stochastic"
)

// chainScenario: 3-task chain, 2 procs, deterministic ETC.
func chainScenario(ul float64) *platform.Scenario {
	g := graphgen.Chain(3, 4) // volumes 4
	tau, lat := platform.NewUniformNetwork(2, 1, 0)
	p := &platform.Platform{
		M:   2,
		ETC: [][]float64{{10, 20}, {10, 20}, {10, 20}},
		Tau: tau,
		Lat: lat,
	}
	return &platform.Scenario{G: g, P: p, UL: ul}
}

func TestAssignAndValidate(t *testing.T) {
	scen := chainScenario(1)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	if err := s.Validate(scen.G); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	g := graphgen.Chain(3, 1)

	// Unscheduled task.
	s := New(3, 2)
	s.Assign(0, 0)
	if err := s.Validate(g); err == nil {
		t.Error("accepted incomplete schedule")
	}

	// Task scheduled twice.
	s = New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	s.Order[1] = append(s.Order[1], 2) // duplicate entry for task 2
	if err := s.Validate(g); err == nil {
		t.Error("accepted duplicated task")
	}

	// Order contradicting precedence on one processor.
	s = New(3, 1)
	s.Proc[0], s.Proc[1], s.Proc[2] = 0, 0, 0
	s.Order[0] = []dag.Task{2, 1, 0} // reversed chain
	if err := s.Validate(g); err == nil {
		t.Error("accepted precedence-violating order")
	}

	// Wrong graph size.
	if err := New(2, 1).Validate(g); err == nil {
		t.Error("accepted size mismatch")
	}
}

func TestDisjunctive(t *testing.T) {
	// Two independent tasks serialized on one processor must gain an
	// edge.
	g := dag.New(2)
	s := New(2, 1)
	s.Assign(1, 0)
	s.Assign(0, 0)
	dg, err := s.Disjunctive(g)
	if err != nil {
		t.Fatal(err)
	}
	if !dg.HasEdge(1, 0) {
		t.Error("disjunctive edge 1→0 missing")
	}
	if dg.Volume(1, 0) != 0 {
		t.Error("disjunctive edge must carry no communication volume")
	}
	// The original graph is untouched.
	if g.EdgeCount() != 0 {
		t.Error("Disjunctive mutated the input graph")
	}
}

func TestPrevOnProc(t *testing.T) {
	s := New(4, 2)
	s.Assign(2, 0)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(3, 1)
	prev := s.PrevOnProc()
	want := []dag.Task{2, -1, -1, 1}
	for i := range want {
		if prev[i] != want[i] {
			t.Errorf("prev[%d] = %d, want %d", i, prev[i], want[i])
		}
	}
}

func TestMinTimingChainSameProc(t *testing.T) {
	scen := chainScenario(1)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.MinTiming()
	// Same processor: no communication; makespan = 30.
	if tm.Makespan != 30 {
		t.Errorf("makespan = %g, want 30", tm.Makespan)
	}
	wantStart := []float64{0, 10, 20}
	for i := range wantStart {
		if tm.Start[i] != wantStart[i] {
			t.Errorf("start[%d] = %g, want %g", i, tm.Start[i], wantStart[i])
		}
	}
}

func TestMinTimingChainCrossProc(t *testing.T) {
	scen := chainScenario(1)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.MinTiming()
	// t0 on p0: [0,10]; comm 4 → t1 starts 14 on p1, dur 20 → 34;
	// comm 4 → t2 starts 38 on p0, dur 10 → 48.
	if tm.Makespan != 48 {
		t.Errorf("makespan = %g, want 48", tm.Makespan)
	}
}

func TestEagerRespectsProcessorOrder(t *testing.T) {
	// Two independent tasks on one processor: the schedule order wins
	// even if reversing would be faster.
	g := dag.New(2)
	tau, lat := platform.NewUniformNetwork(1, 0, 0)
	p := &platform.Platform{M: 1, ETC: [][]float64{{5}, {1}}, Tau: tau, Lat: lat}
	scen := &platform.Scenario{G: g, P: p, UL: 1}
	s := New(2, 1)
	s.Assign(0, 0) // long task first
	s.Assign(1, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	tm := sim.MinTiming()
	if tm.Start[1] != 5 {
		t.Errorf("task 1 start = %g, want 5 (after task 0)", tm.Start[1])
	}
}

func TestMeanTimingExceedsMin(t *testing.T) {
	scen := chainScenario(1.5)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	min := sim.MinTiming().Makespan
	mean := sim.MeanTiming().Makespan
	if mean <= min {
		t.Errorf("mean makespan %g should exceed min %g under UL>1", mean, min)
	}
}

func TestRealizationBounds(t *testing.T) {
	scen := chainScenario(1.2)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	min := sim.MinTiming().Makespan
	// Upper bound: every duration at min·UL.
	max := min * 1.2
	for _, ms := range sim.Compile(stochastic.SamplerExact).Realizations(2000, 1, KernelOptions{}) {
		if ms < min-1e-9 || ms > max+1e-9 {
			t.Fatalf("realization %g outside [%g,%g]", ms, min, max)
		}
	}
}

func TestRealizationsDeterministicAndParallel(t *testing.T) {
	scen := chainScenario(1.3)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 1)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.Compile(stochastic.SamplerExact)
	a := k.Realizations(5000, 42, KernelOptions{})
	b := k.Realizations(5000, 42, KernelOptions{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different realizations")
		}
	}
	c := k.Realizations(5000, 43, KernelOptions{})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical realizations")
	}
}

func TestRealizationsMatchSequential(t *testing.T) {
	// With UL=1 every realization equals the deterministic makespan.
	scen := chainScenario(1)
	s := New(3, 2)
	s.Assign(0, 1)
	s.Assign(1, 0)
	s.Assign(2, 1)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MinTiming().Makespan
	for _, ms := range sim.Compile(stochastic.SamplerExact).Realizations(100, 7, KernelOptions{}) {
		if ms != want {
			t.Fatalf("deterministic realization = %g, want %g", ms, want)
		}
	}
}

func TestEmpiricalFromSimulator(t *testing.T) {
	scen := chainScenario(1.4)
	s := New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 0)
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	emp := sim.Compile(stochastic.SamplerExact).Empirical(20000, 3, KernelOptions{})
	if emp.Len() != 20000 {
		t.Fatalf("empirical len = %d", emp.Len())
	}
	// Same processor chain: makespan = sum of three Beta(2,5) over
	// [10,14]: mean = 3·10·(1+0.4·2/7) ≈ 33.43.
	want := 3 * 10 * (1 + 0.4*2.0/7.0)
	if math.Abs(emp.Mean()-want) > 0.2 {
		t.Errorf("empirical mean = %g, want ~%g", emp.Mean(), want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(2, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	c := s.Clone()
	c.Proc[0] = 1
	c.Order[0] = nil
	if s.Proc[0] != 0 || len(s.Order[0]) != 1 {
		t.Error("clone shares storage with original")
	}
}

// Property: realized makespan is never below the critical path of the
// minimum durations (lower bound ignoring resources).
func TestRealizationAboveCriticalPathProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		g, w := graphgen.Random(n, rng)
		m := 2 + rng.Intn(3)
		tau, lat := platform.NewUniformNetwork(m, 1, 0)
		p := &platform.Platform{
			M:   m,
			ETC: platform.GenerateETCFromWeights(w, m, 0.5, rng),
			Tau: tau,
			Lat: lat,
		}
		scen := &platform.Scenario{G: g, P: p, UL: 1.1}
		s := New(n, m)
		// Random valid schedule via topological order.
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
		// Critical path with min durations on assigned procs, ignoring
		// comm and processor contention.
		finish := make([]float64, n)
		var cp float64
		for _, task := range order {
			var start float64
			for _, pred := range g.Pred(task) {
				start = max(start, finish[pred])
			}
			finish[task] = start + p.ETC[task][s.Proc[task]]
			cp = max(cp, finish[task])
		}
		for _, ms := range sim.Compile(stochastic.SamplerExact).Realizations(50, int64(trial), KernelOptions{}) {
			if ms < cp-1e-9 {
				t.Fatalf("trial %d: realization %g below critical path %g", trial, ms, cp)
			}
		}
	}
}
