package makespan_test

// The equivalence harness of the compiled evaluation layer, in the
// style of the scheduler harness: EvalModel must reproduce the
// uncompiled evaluators it replaced — Classic densities and metric
// vectors bitwise, slack vectors and Spelde moments exactly — on every
// registered workload family, across sizes, uncertainty levels and
// seeds, plus the §VIII scenario extensions and degenerate inputs. This
// is what licenses the shared-EvalModel refactor to claim zero
// behavior change; the zero-latency differential test at the bottom
// pins the one deliberate behavior change (the corrected zero-min comm
// guard) against the Monte-Carlo ground truth.
//
// Slacks and Spelde moments are checked against short in-test oracles
// on the rebuilt map-based disjunctive graph. The uncompiled classical
// evaluator is retired: each cell's density and metric vector are
// frozen as a digest in testdata/<test>.digests, recorded while the
// harness still compared Classic with it bit for bit (see
// internal/testdigest). Regenerate them only for a deliberate change of
// Classic's densities or the metrics, on amd64 and without -short:
//
//	go test ./internal/makespan -run '^(TestEvalModel(MatchesReference|UnderULExtensions|DegenerateInputs)|TestMetricsMatchesReference|TestCompiledDodinMatchesLegacyOn(SP|Random|AllFamilies))$' -update

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/stochastic"
	"repro/internal/testdigest"
)

// assertSameRV fails unless the two distributions are structurally and
// bitwise equal.
func assertSameRV(t *testing.T, label string, got, want *stochastic.Numeric) {
	t.Helper()
	if got.IsPoint() != want.IsPoint() || got.Lo() != want.Lo() || got.Hi() != want.Hi() {
		t.Fatalf("%s: support differs: point=%v [%v,%v], want point=%v [%v,%v]",
			label, got.IsPoint(), got.Lo(), got.Hi(), want.IsPoint(), want.Lo(), want.Hi())
	}
	gp, wp := got.PDFGrid(), want.PDFGrid()
	if len(gp) != len(wp) {
		t.Fatalf("%s: grid size %d != %d", label, len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: density diverges at %d: %g != %g", label, i, gp[i], wp[i])
		}
	}
}

// referenceSlacks is the oracle of EvalModel.Slacks: the slack
// vector of §IV on the rebuilt map-based disjunctive graph, with every
// duration and communication at its mean. Tl(i) is the longest path
// from an entry task to i without i's own duration, Bl(i) the longest
// path from i to an exit task with it, M the longest entry-to-exit path
// and s_i = M − Bl(i) − Tl(i), clamped at 0 against rounding noise.
func referenceSlacks(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) []float64 {
	t.Helper()
	dg, err := s.Disjunctive(scen.G)
	if err != nil {
		t.Fatal(err)
	}
	order, err := dg.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	w := func(i dag.Task) float64 { return scen.TaskDist(i, s.Proc[i]).Mean() }
	c := func(from, to dag.Task) float64 { return scen.CommDist(from, to, s.Proc[from], s.Proc[to]).Mean() }
	n := scen.G.N()
	tl := make([]float64, n)
	bl := make([]float64, n)
	for _, task := range order {
		for _, p := range dg.Pred(task) {
			tl[task] = max(tl[task], tl[p]+w(p)+c(p, task))
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		task := order[i]
		bl[task] = w(task)
		for _, succ := range dg.Succ(task) {
			bl[task] = max(bl[task], w(task)+c(task, succ)+bl[succ])
		}
	}
	var cp float64
	for i := range tl {
		cp = max(cp, tl[i]+bl[i])
	}
	slacks := make([]float64, n)
	for i := range slacks {
		slacks[i] = max(0, cp-bl[i]-tl[i])
	}
	return slacks
}

// referenceSpelde is Spelde's method on the rebuilt map-based
// disjunctive graph, re-deriving every moment from the scenario's
// distributions per call: the oracle of EvalModel.Spelde. An entry
// task starts at 0; a task's start moments are the Clark maximum, in
// predecessor order, of each arrival (predecessor completion plus the
// arc's communication unless it is zero), and the makespan is the
// Clark maximum over the sinks.
func referenceSpelde(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) makespan.SpeldeResult {
	t.Helper()
	dg, err := s.Disjunctive(scen.G)
	if err != nil {
		t.Fatal(err)
	}
	order, err := dg.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	n := scen.G.N()
	mu := make([]float64, n)
	variance := make([]float64, n)
	for _, task := range order {
		var sMu, sVar float64
		for i, p := range dg.Pred(task) {
			aMu, aVar := mu[p], variance[p]
			if d := scen.CommDist(p, task, s.Proc[p], s.Proc[task]); !makespan.ZeroCommArc(d) {
				aMu += d.Mean()
				aVar += d.Variance()
			}
			if i == 0 {
				sMu, sVar = aMu, aVar
			} else {
				sMu, sVar = makespan.ClarkMax(sMu, sVar, aMu, aVar)
			}
		}
		d := scen.TaskDist(task, s.Proc[task])
		mu[task] = sMu + d.Mean()
		variance[task] = sVar + d.Variance()
	}
	var outMu, outVar float64
	for i, task := range dg.Sinks() {
		if i == 0 {
			outMu, outVar = mu[task], variance[task]
		} else {
			outMu, outVar = makespan.ClarkMax(outMu, outVar, mu[task], variance[task])
		}
	}
	return makespan.SpeldeResult{Mean: outMu, Std: math.Sqrt(outVar)}
}

// checkModelAgainstReferences runs every compiled evaluator on one
// (scenario, schedule) pair through a shared cache: slacks and Spelde
// moments against their oracles, and the Classic density with the
// metric vector against the frozen digest. The metric vector is
// EvalModel.Metrics' body on the density and slacks computed here,
// since running Classic a second time dominates the large cells;
// TestMetricsMatchesReference calls Metrics itself.
func checkModelAgainstReferences(t *testing.T, frozen *testdigest.Set, label string, cache *makespan.EvalCache, s *schedule.Schedule, grid int) {
	t.Helper()
	scen := cache.Scenario()
	m, err := cache.Model(s)
	if err != nil {
		t.Fatalf("%s: model: %v", label, err)
	}

	wantSp := referenceSpelde(t, scen, s)
	gotSp := m.Spelde()
	if gotSp.Mean != wantSp.Mean || gotSp.Std != wantSp.Std {
		t.Fatalf("%s: spelde (%v,%v) != reference (%v,%v)",
			label, gotSp.Mean, gotSp.Std, wantSp.Mean, wantSp.Std)
	}

	wantSlacks := referenceSlacks(t, scen, s)
	gotSlacks := m.Slacks()
	if len(gotSlacks) != len(wantSlacks) {
		t.Fatalf("%s: slack length %d != %d", label, len(gotSlacks), len(wantSlacks))
	}
	for i := range wantSlacks {
		if gotSlacks[i] != wantSlacks[i] {
			t.Fatalf("%s: slack diverges at task %d: %g != %g",
				label, i, gotSlacks[i], wantSlacks[i])
		}
	}

	got := m.Classic()
	p := robustness.Params{Delta: 0.1, Gamma: 1.0003, GridSize: grid}
	v := robustness.FromDistributionSlacks(got, gotSlacks, p).Vector()
	frozen.Check(t, label, makespan.DensityDigest(got, v[:]...))
}

// TestEvalModelMatchesReference sweeps all registered workload families
// × sizes × uncertainty levels × seeds. The n=1000 tier runs only
// without -short (the weekly full CI job), one seed × one UL per
// family, the grid its digests were recorded on.
func TestEvalModelMatchesReference(t *testing.T) {
	sizes := []int{10, 100}
	if !testing.Short() {
		sizes = append(sizes, 1000)
	}
	uls := []float64{1.0, 1.5}
	seeds := []int64{1, 2, 3}
	frozen := testdigest.Load(t)
	for _, family := range experiment.FamilyNames() {
		for _, n := range sizes {
			cellULs, cellSeeds, schedsPer := uls, seeds, 2
			if n >= 1000 {
				cellULs, cellSeeds, schedsPer = uls[1:], seeds[:1], 1
			}
			for _, ul := range cellULs {
				for _, seed := range cellSeeds {
					spec := experiment.CaseSpec{
						Name: "equiv", Family: family, N: n, M: 4, UL: ul, Seed: seed,
					}
					scen, err := spec.BuildScenario()
					var se *experiment.SizeError
					if errors.As(err, &se) {
						continue // size off this family's grid
					}
					if err != nil {
						t.Fatalf("%s/n=%d: %v", family, n, err)
					}
					cache := makespan.NewEvalCache(scen, 64)
					rng := rand.New(rand.NewSource(seed * 977))
					for k := 0; k < schedsPer; k++ {
						label := family + "/n=" + itoa(n) + "/ul=" + ftoa(ul) +
							"/seed=" + itoa(int(seed)) + "/sched=" + itoa(k)
						s := heuristics.RandomSchedule(scen, rng)
						checkModelAgainstReferences(t, frozen, label, cache, s, 64)
					}
				}
			}
		}
	}
}

// TestEvalModelUnderULExtensions pins the compiled evaluators to the
// references' results on the §VIII scenario extensions, which exercise the
// per-task (TaskUL), per-processor (ProcUL) and custom-DurFn branches
// of the cache key.
func TestEvalModelUnderULExtensions(t *testing.T) {
	spec := experiment.CaseSpec{Name: "equiv-ext", Family: experiment.RandomFamily,
		N: 60, M: 4, UL: 1.2, Seed: 11}
	base, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	durfn := *base
	durfn.DurFn = func(min, ul float64) stochastic.Dist {
		return stochastic.Uniform{Lo: min, Hi: min * ul}
	}
	varUL, err := base.WithVariableUL(1.0, 2.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := base.WithNoisyProcessors(1.02, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	scens := map[string]*platform.Scenario{
		"variable-ul":  varUL,
		"noisy-procs":  noisy,
		"custom-durfn": &durfn,
	}
	frozen := testdigest.Load(t)
	for name, scen := range scens {
		cache := makespan.NewEvalCache(scen, 64)
		rng := rand.New(rand.NewSource(21))
		for k := 0; k < 2; k++ {
			s := heuristics.RandomSchedule(scen, rng)
			checkModelAgainstReferences(t, frozen, name+"/sched="+itoa(k), cache, s, 64)
		}
	}
}

// TestLevelsCheckedBeforeEvaluation sets uncertainty levels outside
// [1, +Inf), and per-task and per-processor levels of the wrong length,
// by hand on Fig. 3's 10-task Cholesky case: the compiled model and the
// Monte-Carlo simulator must both refuse the scenario. Unchecked, a NaN
// or infinite per-task level panicked in Metrics, a level below 1
// silently ran deterministic durations, and the tasks or processors a
// short TaskUL or ProcUL missed silently ran at the global UL.
func TestLevelsCheckedBeforeEvaluation(t *testing.T) {
	base, err := experiment.Fig3Case(1).BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	heft, err := heuristics.HEFT(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5} {
		global := *base
		global.UL = bad
		perTask := *base
		perTask.TaskUL = make([]float64, base.G.N())
		for i := range perTask.TaskUL {
			perTask.TaskUL[i] = 1.1
		}
		perTask.TaskUL[3] = bad
		perProc := *base
		perProc.ProcUL = []float64{1.1, bad, 1.1}
		for name, scen := range map[string]*platform.Scenario{"UL": &global, "TaskUL": &perTask, "ProcUL": &perProc} {
			if _, err := makespan.NewEvalCache(scen, 64).Model(heft.Schedule); err == nil {
				t.Errorf("%s = %v: EvalCache.Model accepted it", name, bad)
			}
			if _, err := schedule.NewSimulator(scen, heft.Schedule); err == nil {
				t.Errorf("%s = %v: NewSimulator accepted it", name, bad)
			}
		}
	}

	shortTask := *base
	shortTask.TaskUL = []float64{1.1, 1.2, 1.3}
	shortProc := *base
	shortProc.ProcUL = []float64{1.5}
	longProc := *base
	longProc.ProcUL = []float64{1.1, 1.2, 1.3, 1.4}
	emptyTask := *base
	emptyTask.TaskUL = []float64{}
	for name, scen := range map[string]*platform.Scenario{
		"3-entry TaskUL": &shortTask, "1-entry ProcUL": &shortProc,
		"4-entry ProcUL": &longProc, "empty TaskUL": &emptyTask,
	} {
		if _, err := makespan.NewEvalCache(scen, 64).Model(heft.Schedule); err == nil {
			t.Errorf("%s: EvalCache.Model accepted it", name)
		}
		if _, err := schedule.NewSimulator(scen, heft.Schedule); err == nil {
			t.Errorf("%s: NewSimulator accepted it", name)
		}
	}
}

// uniformScen builds a scenario with constant ETC over a uniform
// zero-latency network.
func uniformScen(g *dag.Graph, m int, etcVal, ul float64) *platform.Scenario {
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

// TestEvalModelDegenerateInputs covers the evaluation edge cases:
// a single-task graph, an all-Dirac (UL = 1) scenario, and a
// zero-duration chain, each asserted exactly against the oracles and
// the frozen digests.
func TestEvalModelDegenerateInputs(t *testing.T) {
	frozen := testdigest.Load(t)
	// Single task, no edges.
	single := uniformScen(dag.New(1), 2, 10, 1.4)
	s1 := schedule.New(1, 2)
	s1.Assign(0, 1)
	checkModelAgainstReferences(t, frozen, "single-task", makespan.NewEvalCache(single, 64), s1, 64)
	rv, err := makespan.EvaluateClassic(single, s1, 64)
	if err != nil {
		t.Fatal(err)
	}
	d := single.TaskDist(0, 1)
	if lo, _ := d.Support(); rv.Lo() != lo {
		t.Errorf("single-task support starts at %g, want %g", rv.Lo(), lo)
	}

	// All-Dirac: UL = 1 collapses every distribution to a constant.
	g := dag.New(4)
	for _, e := range [][2]dag.Task{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 3); err != nil {
			t.Fatal(err)
		}
	}
	det := uniformScen(g, 2, 10, 1)
	s2 := schedule.New(4, 2)
	s2.Assign(0, 0)
	s2.Assign(1, 0)
	s2.Assign(2, 1)
	s2.Assign(3, 0)
	checkModelAgainstReferences(t, frozen, "all-dirac", makespan.NewEvalCache(det, 64), s2, 64)
	rv, err = makespan.EvaluateClassic(det, s2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !rv.IsPoint() {
		t.Error("all-Dirac scenario must evaluate to a point distribution")
	}

	// Zero-duration chain: ETC = 0 keeps every duration Dirac(0) even
	// under UL > 1 (the default family is multiplicative).
	chain := dag.New(3)
	if err := chain.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := chain.AddEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	zero := uniformScen(chain, 2, 0, 1.5)
	s3 := schedule.New(3, 2)
	s3.Assign(0, 0)
	s3.Assign(1, 1)
	s3.Assign(2, 0)
	checkModelAgainstReferences(t, frozen, "zero-chain", makespan.NewEvalCache(zero, 64), s3, 64)
	rv, err = makespan.EvaluateClassic(zero, s3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !rv.IsPoint() || rv.Lo() != 0 {
		t.Errorf("zero-duration chain makespan = %v, want point at 0", rv)
	}
}

// TestEvalCacheConcurrentSchedules evaluates many schedules of one case
// in parallel against a single shared cache — the RunCaseOn access
// pattern — and requires every result to stay bit-identical to a
// one-worker evaluation on a cache of its own (races in the cache or
// buffer recycling would corrupt densities; `go test -race` patrols the
// locking).
func TestEvalCacheConcurrentSchedules(t *testing.T) {
	spec := experiment.CaseSpec{Name: "conc", Family: experiment.CholeskyFamily,
		N: 35, M: 3, UL: 1.3, Seed: 13}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	scheds := heuristics.RandomSchedules(scen, 16, rng)
	cache := makespan.NewEvalCache(scen, 64)
	got := make([]*stochastic.Numeric, len(scheds))
	var wg sync.WaitGroup
	for i := range scheds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := cache.Model(scheds[i])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = m.Classic()
		}(i)
	}
	wg.Wait()
	for i, s := range scheds {
		m, err := makespan.NewEvalCache(scen, 64).Model(s)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.ClassicWorkers(1)
		assertSameRV(t, "concurrent/"+itoa(i), got[i], want)
	}
}

// TestZeroMinCommMatchesMonteCarlo is the differential test of the
// corrected skip rule: a zero-latency network (every cross-processor
// link has minimum time 0) under an additive DurFn still delays
// cross-processor successors stochastically. The Monte-Carlo engine
// always sampled those links; the historical `minComm > 0` guard made
// the analytic evaluators silently drop them, under-reporting the
// makespan by one mean communication per cross-processor hop. With the
// corrected guard, classic and Spelde agree with Monte Carlo (and with
// the analytic sum) on a two-hop cross-processor chain.
func TestZeroMinCommMatchesMonteCarlo(t *testing.T) {
	g := dag.New(3)
	if err := g.AddEdge(0, 1, 5); err != nil { // volumes are irrelevant at τ = 0
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	n := 3
	etc := make([][]float64, n)
	for i := range etc {
		etc[i] = []float64{10, 10}
	}
	tau, lat := platform.NewUniformNetwork(2, 0, 0) // τ = 0, latency = 0
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 2, ETC: etc, Tau: tau, Lat: lat},
		UL: 1.5,
		// Additive noise: every duration and link takes its minimum
		// plus Uniform[0, (ul-1)] — a zero-min link averages 0.25.
		DurFn: func(min, ul float64) stochastic.Dist {
			return stochastic.Uniform{Lo: min, Hi: min + (ul - 1)}
		},
	}
	s := schedule.New(n, 2)
	s.Assign(0, 0)
	s.Assign(1, 1) // both edges cross processors
	s.Assign(2, 0)

	// Analytic expectation: 3 task durations (10.25 each) plus 2
	// cross-processor links (0.25 each) = 31.25.
	const want = 3*10.25 + 2*0.25

	rv, err := makespan.EvaluateClassic(scen, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := makespan.MonteCarlo(scen, s, 100000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(emp.Mean()-want) > 0.02 {
		t.Fatalf("MC mean %g, want %g: the ground truth itself lost the zero-min links", emp.Mean(), want)
	}
	// The historical guard evaluated this chain to mean 30.75 (it
	// dropped both links) — far outside the tolerance below.
	if math.Abs(rv.Mean()-emp.Mean()) > 0.05 {
		t.Errorf("classic mean %g diverges from MC %g: zero-min comm arcs dropped", rv.Mean(), emp.Mean())
	}
	sp, err := makespan.EvaluateSpelde(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Mean-want) > 1e-9 {
		t.Errorf("Spelde mean %g, want exactly %g on a chain", sp.Mean, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	if f == float64(int(f)) {
		return itoa(int(f))
	}
	return itoa(int(f)) + "." + itoa(int(f*10)%10)
}
