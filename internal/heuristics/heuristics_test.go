package heuristics

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// randomScenario builds a reproducible random scenario.
func randomScenario(n, m int, ul float64, seed int64) *platform.Scenario {
	rng := rand.New(rand.NewSource(seed))
	g, w := graphgen.Random(n, rng)
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	p := &platform.Platform{
		M:   m,
		ETC: platform.GenerateETCFromWeights(w, m, 0.5, rng),
		Tau: tau,
		Lat: lat,
	}
	return &platform.Scenario{G: g, P: p, UL: ul}
}

// choleskyScenario mirrors the paper's Fig. 3 case (10 tasks, 3 procs).
func choleskyScenario(ul float64, seed int64) *platform.Scenario {
	rng := rand.New(rand.NewSource(seed))
	g := graphgen.Cholesky(3, 10, 20, rng)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	p := &platform.Platform{
		M:   3,
		ETC: platform.GenerateETCUniform(g.N(), 3, 10, 20, rng),
		Tau: tau,
		Lat: lat,
	}
	return &platform.Scenario{G: g, P: p, UL: ul}
}

func TestRandomScheduleValid(t *testing.T) {
	scen := randomScenario(40, 4, 1.1, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		s := RandomSchedule(scen, rng)
		if err := s.Validate(scen.G); err != nil {
			t.Fatalf("random schedule %d invalid: %v", i, err)
		}
	}
}

func TestRandomSchedulesAreDiverse(t *testing.T) {
	scen := randomScenario(20, 4, 1.1, 3)
	rng := rand.New(rand.NewSource(4))
	ss := RandomSchedules(scen, 20, rng)
	if len(ss) != 20 {
		t.Fatalf("got %d schedules", len(ss))
	}
	distinct := false
	for i := 1; i < len(ss); i++ {
		for tsk := range ss[i].Proc {
			if ss[i].Proc[tsk] != ss[0].Proc[tsk] {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Error("20 random schedules all identical")
	}
}

func TestUpwardRanksMonotone(t *testing.T) {
	scen := randomScenario(30, 3, 1.1, 5)
	cm, err := NewCostModel(scen)
	if err != nil {
		t.Fatal(err)
	}
	rank := cm.UpwardRanks()
	// A parent's rank strictly exceeds every child's rank.
	for _, e := range scen.G.Edges() {
		if rank[e.From] <= rank[e.To] {
			t.Errorf("rank[%d]=%g <= rank[%d]=%g along edge", e.From, rank[e.From], e.To, rank[e.To])
		}
	}
	// RankOrder is a topological order.
	order := cm.RankOrder()
	pos := make([]int, len(order))
	for i, task := range order {
		pos[task] = i
	}
	for _, e := range scen.G.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("rank order violates edge %v", e)
		}
	}
}

func TestHEFTProducesValidSchedule(t *testing.T) {
	for _, scen := range []*platform.Scenario{
		randomScenario(30, 4, 1.1, 6),
		choleskyScenario(1.01, 7),
	} {
		res, err := HEFT(scen)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("HEFT schedule invalid: %v", err)
		}
		if res.Makespan <= 0 {
			t.Error("HEFT makespan not positive")
		}
	}
}

func TestBILProducesValidSchedule(t *testing.T) {
	for _, scen := range []*platform.Scenario{
		randomScenario(30, 4, 1.1, 8),
		choleskyScenario(1.01, 9),
	} {
		res, err := BIL(scen)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("BIL schedule invalid: %v", err)
		}
		if res.Makespan <= 0 {
			t.Error("BIL makespan not positive")
		}
	}
}

func TestHBMCTProducesValidSchedule(t *testing.T) {
	for _, scen := range []*platform.Scenario{
		randomScenario(30, 4, 1.1, 10),
		choleskyScenario(1.01, 11),
	} {
		res, err := HBMCT(scen)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("HBMCT schedule invalid: %v", err)
		}
		if res.Makespan <= 0 {
			t.Error("HBMCT makespan not positive")
		}
	}
}

// The headline sanity check from the paper's §VII: the heuristics
// "give always the best makespan" against random schedules.
func TestHeuristicsBeatRandomSchedules(t *testing.T) {
	scen := randomScenario(40, 4, 1.1, 12)
	rng := rand.New(rand.NewSource(13))

	randBest := 1e18
	for i := 0; i < 200; i++ {
		s := RandomSchedule(scen, rng)
		sim, err := schedule.NewSimulator(scen, s)
		if err != nil {
			t.Fatal(err)
		}
		if ms := sim.MeanTiming().Makespan; ms < randBest {
			randBest = ms
		}
	}
	for _, h := range All() {
		res, err := h.Fn(scen)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		sim, err := schedule.NewSimulator(scen, res.Schedule)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		ms := sim.MeanTiming().Makespan
		if ms > randBest {
			t.Errorf("%s mean makespan %g worse than best of 200 random (%g)", h.Name, ms, randBest)
		}
	}
}

// The heuristic's internal makespan estimate must agree with the eager
// re-simulation of its schedule (append-mode heuristics exactly;
// insertion-based HEFT within tolerance since eager execution can only
// start tasks earlier, never later).
func TestHeuristicEstimateMatchesSimulation(t *testing.T) {
	scen := randomScenario(25, 3, 1.1, 14)
	for _, h := range All() {
		res, err := h.Fn(scen)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		sim, err := schedule.NewSimulator(scen, res.Schedule)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		got := sim.MeanTiming().Makespan
		if got > res.Makespan+1e-6 {
			t.Errorf("%s: simulated mean makespan %g exceeds heuristic estimate %g", h.Name, got, res.Makespan)
		}
	}
}

func TestHEFTChainCollapsesToOneProcessor(t *testing.T) {
	// A chain with heavy communication must stay on the fastest
	// processor.
	g := graphgen.Chain(5, 100)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	etc := make([][]float64, 5)
	for i := range etc {
		etc[i] = []float64{10, 11, 12} // proc 0 fastest everywhere
	}
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 3, ETC: etc, Tau: tau, Lat: lat},
		UL: 1,
	}
	res, err := HEFT(scen)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Schedule.Proc {
		if p != 0 {
			t.Errorf("task %d on proc %d, want 0", i, p)
		}
	}
	if res.Makespan != 50 {
		t.Errorf("HEFT chain makespan = %g, want 50", res.Makespan)
	}
}

func TestHEFTInsertionUsesGaps(t *testing.T) {
	// slots: busy [10,20]; est 0, dur 5 → fits at 0.
	slots := []slot{{10, 20}}
	if got := insertionStart(slots, 0, 5); got != 0 {
		t.Errorf("insertion start = %g, want 0", got)
	}
	// dur 15 does not fit before 10 → starts at 20.
	if got := insertionStart(slots, 0, 15); got != 20 {
		t.Errorf("insertion start = %g, want 20", got)
	}
	// est 12 inside the busy slot → 20.
	if got := insertionStart(slots, 12, 3); got != 20 {
		t.Errorf("insertion start = %g, want 20", got)
	}
}

func TestIndependentGroups(t *testing.T) {
	// Chain 0→1→2: every task is its own group.
	g := graphgen.Chain(3, 1)
	reach := reachability(g)
	groups := independentGroups([]dag.Task{0, 1, 2}, reach)
	if len(groups) != 3 {
		t.Fatalf("chain groups = %d, want 3", len(groups))
	}
	// Fork: source alone, then all children together.
	f := graphgen.Fork(4, 1)
	reach = reachability(f)
	groups = independentGroups([]dag.Task{0, 1, 2, 3}, reach)
	if len(groups) != 2 || len(groups[0]) != 1 || len(groups[1]) != 3 {
		t.Fatalf("fork groups = %v", groups)
	}
}

func TestReachability(t *testing.T) {
	g := graphgen.Chain(4, 1)
	reach := reachability(g)
	if !connected(reach, 0, 3) || !connected(reach, 3, 0) {
		t.Error("chain endpoints should be connected (transitively)")
	}
	f := graphgen.Fork(3, 1)
	reach = reachability(f)
	if connected(reach, 1, 2) {
		t.Error("fork siblings must be independent")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"heft", "HEFT", "bil", "BIL", "hbmct", "Hyb.BMCT", "sdheft", "SDHEFT"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName should return nil for unknown names")
	}
}

// All lists the paper's three heuristics by name, the order experiment
// rows follow.
func TestAllSortedByName(t *testing.T) {
	var names []string
	for _, e := range All() {
		names = append(names, e.Name)
	}
	if want := []string{"BIL", "HBMCT", "HEFT"}; !slices.Equal(names, want) {
		t.Errorf("All() names = %v, want %v", names, want)
	}
}

func TestModelAvgComm(t *testing.T) {
	scen := randomScenario(10, 1, 1.1, 15)
	cm, err := NewCostModel(scen)
	if err != nil {
		t.Fatal(err)
	}
	// Single processor: no communication ever.
	for e, c := range cm.EdgeAvgComm {
		if c != 0 {
			t.Errorf("single-proc EdgeAvgComm[%d] = %g, must be 0", e, c)
		}
	}
}
