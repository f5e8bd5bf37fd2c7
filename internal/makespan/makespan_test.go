package makespan

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// uniformScenario builds a scenario with identical ETC for every task.
func uniformScenario(g *dag.Graph, m int, etcVal, ul float64) *platform.Scenario {
	n := g.N()
	etc := make([][]float64, n)
	for i := range etc {
		row := make([]float64, m)
		for j := range row {
			row[j] = etcVal
		}
		etc[i] = row
	}
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	return &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: m, ETC: etc, Tau: tau, Lat: lat},
		UL: ul,
	}
}

// allOnProc schedules every task of g on processor p in topological
// order.
func allOnProc(t *testing.T, g *dag.Graph, m, p int) *schedule.Schedule {
	t.Helper()
	s := schedule.New(g.N(), m)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range order {
		s.Assign(task, p)
	}
	return s
}

// modelFor compiles the 64-point evaluation model of s.
func modelFor(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) *EvalModel {
	t.Helper()
	m, err := NewEvalCache(scen, 0).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClassicChainMatchesMonteCarlo(t *testing.T) {
	// A 4-task chain on one processor: makespan = sum of 4 Beta(2,5)
	// variables — classic evaluation is exact (up to discretization).
	g := graphgen.Chain(4, 0)
	scen := uniformScenario(g, 1, 10, 1.3)
	s := allOnProc(t, g, 1, 0)

	rv, err := Evaluate(scen, s, Classic, 64)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarloWith(scen, s, 100000, 1, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rv.Mean(), emp.Mean(), 0.05) {
		t.Errorf("classic mean %g vs MC %g", rv.Mean(), emp.Mean())
	}
	if !almostEqual(rv.StdDev(), emp.StdDev(), 0.05) {
		t.Errorf("classic std %g vs MC %g", rv.StdDev(), emp.StdDev())
	}
	// Support: [40, 52].
	if !almostEqual(rv.Lo(), 40, 0.3) || !almostEqual(rv.Hi(), 52, 0.3) {
		t.Errorf("support [%g,%g], want [40,52]", rv.Lo(), rv.Hi())
	}
}

func TestClassicJoinMatchesMonteCarlo(t *testing.T) {
	// Fig. 9-style join: 4 independent tasks on 4 procs feeding a sink;
	// independence is exact here (in-tree), so classic == MC.
	g := graphgen.Join(5, 0)
	scen := uniformScenario(g, 5, 10, 1.5)
	s := schedule.New(5, 5)
	for i := 0; i < 5; i++ {
		s.Assign(dag.Task(i), i)
	}
	rv, err := Evaluate(scen, s, Classic, 64)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarloWith(scen, s, 100000, 2, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rv.Mean(), emp.Mean(), 0.08) {
		t.Errorf("classic mean %g vs MC %g", rv.Mean(), emp.Mean())
	}
	if !almostEqual(rv.StdDev(), emp.StdDev(), 0.08) {
		t.Errorf("classic std %g vs MC %g", rv.StdDev(), emp.StdDev())
	}
}

func TestClassicDeterministicCase(t *testing.T) {
	// UL = 1: the makespan distribution collapses to the deterministic
	// makespan.
	g := graphgen.Chain(3, 5)
	scen := uniformScenario(g, 2, 10, 1)
	s := schedule.New(3, 2)
	s.Assign(0, 0)
	s.Assign(1, 1)
	s.Assign(2, 0)
	rv, err := Evaluate(scen, s, Classic, 64)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MinTiming().Makespan
	if !rv.IsPoint() {
		t.Error("deterministic case should be a point distribution")
	}
	if !almostEqual(rv.Mean(), want, 1e-9) {
		t.Errorf("deterministic makespan %g, want %g", rv.Mean(), want)
	}
}

func TestClassicRejectsInvalidSchedule(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)
	if _, err := Evaluate(scen, schedule.New(3, 2), Classic, 64); err == nil {
		t.Error("accepted incomplete schedule")
	}
}

func TestSpeldeChainMoments(t *testing.T) {
	// On a chain every task has one disjunctive predecessor, so the
	// Spelde moments are exact: sums of the task and arc moments.
	t.Run("one processor", func(t *testing.T) {
		g := graphgen.Chain(5, 0)
		scen := uniformScenario(g, 1, 10, 1.4)
		d := scen.TaskDist(0, 0)
		checkSpeldeMoments(t, scen, allOnProc(t, g, 1, 0),
			5*d.Mean(), math.Sqrt(5*d.Variance()))
	})
	t.Run("one processor per task", func(t *testing.T) {
		// Task i on processor i: every arc carries a communication.
		const n = 6
		g := graphgen.Chain(n, 3)
		scen := uniformScenario(g, n, 10, 1.4)
		s := schedule.New(n, n)
		for i := 0; i < n; i++ {
			s.Assign(dag.Task(i), i)
		}
		d, c := scen.TaskDist(0, 0), scen.CommDist(0, 1, 0, 1)
		checkSpeldeMoments(t, scen, s, n*d.Mean()+(n-1)*c.Mean(),
			math.Sqrt(n*d.Variance()+(n-1)*c.Variance()))
	})
}

func checkSpeldeMoments(t *testing.T, scen *platform.Scenario, s *schedule.Schedule, wantMean, wantStd float64) {
	t.Helper()
	res := modelFor(t, scen, s).Spelde()
	if !almostEqual(res.Mean, wantMean, 1e-9) {
		t.Errorf("Spelde mean = %g, want %g", res.Mean, wantMean)
	}
	if !almostEqual(res.Std, wantStd, 1e-9) {
		t.Errorf("Spelde std = %g, want %g", res.Std, wantStd)
	}
	rv, err := Evaluate(scen, s, Spelde, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rv.Mean(), wantMean, 0.1) {
		t.Errorf("Spelde RV mean = %g, want %g", rv.Mean(), wantMean)
	}
}

func TestClarkMaxKnownValues(t *testing.T) {
	// Max of two standard normals: mean = 1/sqrt(pi), var = 1 - 1/pi.
	mu, v := clarkMax(0, 1, 0, 1)
	if !almostEqual(mu, 1/math.Sqrt(math.Pi), 1e-9) {
		t.Errorf("Clark mean = %g, want %g", mu, 1/math.Sqrt(math.Pi))
	}
	if !almostEqual(v, 1-1/math.Pi, 1e-9) {
		t.Errorf("Clark var = %g, want %g", v, 1-1/math.Pi)
	}
	// Degenerate: max of constants.
	mu, v = clarkMax(3, 0, 7, 0)
	if mu != 7 || v != 0 {
		t.Errorf("Clark degenerate = (%g,%g), want (7,0)", mu, v)
	}
	// Widely separated: the larger dominates.
	mu, v = clarkMax(100, 1, 0, 1)
	if !almostEqual(mu, 100, 1e-6) || !almostEqual(v, 1, 1e-3) {
		t.Errorf("Clark separated = (%g,%g), want (100,1)", mu, v)
	}
}

func TestSpeldeAgreesWithMonteCarloOnRealCase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graphgen.Cholesky(3, 10, 20, rng)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 3, ETC: platform.GenerateETCUniform(g.N(), 3, 10, 20, rng), Tau: tau, Lat: lat},
		UL: 1.1,
	}
	res, err := heuristics.HEFT(scen)
	if err != nil {
		t.Fatal(err)
	}
	sp := modelFor(t, scen, res.Schedule).Spelde()
	emp, err := MonteCarloWith(scen, res.Schedule, 50000, 4, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sp.Mean, emp.Mean(), 0.02*emp.Mean()) {
		t.Errorf("Spelde mean %g vs MC %g", sp.Mean, emp.Mean())
	}
	if !almostEqual(sp.Std, emp.StdDev(), 0.5*emp.StdDev()+0.02) {
		t.Errorf("Spelde std %g vs MC %g", sp.Std, emp.StdDev())
	}
}

func TestClassicOnRandomScheduleAgainstMC(t *testing.T) {
	// End-to-end accuracy check mirroring Fig. 1's small-graph regime:
	// for a 10-task random graph the independence assumption is good.
	rng := rand.New(rand.NewSource(7))
	g, w := graphgen.Random(10, rng)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 3, ETC: platform.GenerateETCFromWeights(w, 3, 0.5, rng), Tau: tau, Lat: lat},
		UL: 1.1,
	}
	s := heuristics.RandomSchedule(scen, rng)
	rv, err := Evaluate(scen, s, Classic, 64)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := MonteCarloWith(scen, s, 50000, 8, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rv.Mean(), emp.Mean(), 0.01*emp.Mean()) {
		t.Errorf("classic mean %g vs MC %g", rv.Mean(), emp.Mean())
	}
	if !almostEqual(rv.StdDev(), emp.StdDev(), 0.35*emp.StdDev()) {
		t.Errorf("classic std %g vs MC %g", rv.StdDev(), emp.StdDev())
	}
}

// MonteCarlo must draw the kernel's exact-mode realizations at the
// default block size, which the schedule package holds equal to its
// per-sample oracle, and the table mode must agree in distribution.
func TestMonteCarloKernelModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graphgen.Cholesky(3, 10, 20, rng)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 3, ETC: platform.GenerateETCUniform(g.N(), 3, 10, 20, rng), Tau: tau, Lat: lat},
		UL: 1.2,
	}
	s := heuristics.RandomSchedule(scen, rng)
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Compile(stochastic.SamplerExact).Realizations(4000, 11, schedule.KernelOptions{})
	sort.Float64s(want)
	emp, err := MonteCarloWith(scen, s, 4000, 11, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range emp.Sorted() {
		if x != want[i] {
			t.Fatalf("MonteCarlo diverges from the exact kernel at %d", i)
		}
	}
	fast, err := MonteCarloWith(scen, s, 4000, 11, MCOptions{Sampler: stochastic.SamplerTable})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(fast.Mean()-emp.Mean()) / emp.Mean(); d > 0.01 {
		t.Errorf("table-mode mean off by %.3g%%", 100*d)
	}
}
