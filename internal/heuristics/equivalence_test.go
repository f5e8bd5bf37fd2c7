package heuristics_test

// The equivalence harness of the compiled scheduling layer: every
// optimized heuristic must produce a byte-identical schedule and a
// bitwise-equal makespan to its retained reference implementation, on
// every registered workload family, across sizes, uncertainty levels
// and seeds. This is what licenses the CostModel/timeline rewrites to
// claim "pure mechanical sympathy, zero behavior change".

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/stochastic"
)

// heuristicPairs lists each optimized entry point with its reference
// oracle.
var heuristicPairs = []struct {
	name string
	opt  func(*platform.Scenario) (heuristics.Result, error)
	ref  func(*platform.Scenario) (heuristics.Result, error)
}{
	{"HEFT", heuristics.HEFT, heuristics.ReferenceHEFT},
	{"BIL", heuristics.BIL, heuristics.ReferenceBIL},
	{"HBMCT", heuristics.HBMCT, heuristics.ReferenceHBMCT},
	{"SDHEFT", func(s *platform.Scenario) (heuristics.Result, error) { return heuristics.SDHEFT(s, 1) },
		func(s *platform.Scenario) (heuristics.Result, error) { return heuristics.ReferenceSDHEFT(s, 1) }},
}

// assertIdentical fails unless the two results are exactly equal:
// same processor assignment, same per-processor orders, bitwise-equal
// makespan.
func assertIdentical(t *testing.T, label string, opt, ref heuristics.Result) {
	t.Helper()
	if !reflect.DeepEqual(opt.Schedule.Proc, ref.Schedule.Proc) {
		t.Fatalf("%s: processor assignments differ", label)
	}
	if !reflect.DeepEqual(opt.Schedule.Order, ref.Schedule.Order) {
		t.Fatalf("%s: per-processor orders differ", label)
	}
	if opt.Makespan != ref.Makespan {
		t.Fatalf("%s: makespan %v != reference %v", label, opt.Makespan, ref.Makespan)
	}
}

// caseScenario builds the scenario of one harness cell, or returns nil
// when the size is off the family's grid (e.g. strassen at 10).
func caseScenario(t *testing.T, spec experiment.CaseSpec) *platform.Scenario {
	t.Helper()
	scen, err := spec.BuildScenario()
	var se *experiment.SizeError
	if errors.As(err, &se) {
		return nil
	}
	if err != nil {
		t.Fatalf("%s/n=%d: %v", spec.Family, spec.N, err)
	}
	return scen
}

func runPair(t *testing.T, label string, scen *platform.Scenario,
	opt, ref func(*platform.Scenario) (heuristics.Result, error)) {
	t.Helper()
	ro, err := opt(scen)
	if err != nil {
		t.Fatalf("%s: optimized: %v", label, err)
	}
	rr, err := ref(scen)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	assertIdentical(t, label, ro, rr)
	if err := ro.Schedule.Validate(scen.G); err != nil {
		t.Fatalf("%s: schedule invalid: %v", label, err)
	}
}

// TestOptimizedHeuristicsMatchReference sweeps all registered workload
// families × sizes × uncertainty levels × seeds. The n=1000 tier
// exercises deep timelines and large HBMCT groups but reference HBMCT
// replays the whole sequence per trial there, so it runs only without
// -short (the weekly full CI job).
func TestOptimizedHeuristicsMatchReference(t *testing.T) {
	sizes := []int{10, 100}
	if !testing.Short() {
		sizes = append(sizes, 1000)
	}
	uls := []float64{1.0, 1.5}
	seeds := []int64{1, 2, 3}
	for _, family := range experiment.FamilyNames() {
		for _, n := range sizes {
			// Reference HBMCT is quadratic in sequence length; keep the
			// large tier to one seed × one UL per family so the full
			// suite stays in CI budget.
			cellULs, cellSeeds := uls, seeds
			if n >= 1000 {
				cellULs, cellSeeds = uls[1:], seeds[:1]
			}
			for _, ul := range cellULs {
				for _, seed := range cellSeeds {
					scen := caseScenario(t, experiment.CaseSpec{
						Name: "equiv", Family: family, N: n, M: 4, UL: ul, Seed: seed,
					})
					if scen == nil {
						continue
					}
					for _, pair := range heuristicPairs {
						label := pair.name + "/" + family + "/n=" +
							itoa(n) + "/ul=" + ftoa(ul) + "/seed=" + itoa(int(seed))
						runPair(t, label, scen, pair.opt, pair.ref)
					}
				}
			}
		}
	}
}

// TestBILMatchesReferenceAcrossProcessorCounts pins BIL's incremental
// ready-set priorities against ReferenceBIL beyond the m = 4 of the
// sweep above: m = 1 (a single order entry), m = 2 and the n = 10
// cells at m ≥ 8 (ready sets narrower than m, so k = #ready < m), and
// UL 1.0 (deterministic costs, where equal BIMs and equal priorities
// are common). The wide FFT cells keep over a hundred tasks ready at
// once, whose orders are revised after every placement.
func TestBILMatchesReferenceAcrossProcessorCounts(t *testing.T) {
	bilPair := func(t *testing.T, spec experiment.CaseSpec) {
		t.Helper()
		scen := caseScenario(t, spec)
		if scen == nil {
			return
		}
		label := "BIL/" + spec.Family + "/n=" + itoa(spec.N) + "/m=" + itoa(spec.M) +
			"/ul=" + ftoa(spec.UL) + "/seed=" + itoa(int(spec.Seed))
		runPair(t, label, scen, heuristics.BIL, heuristics.ReferenceBIL)
	}
	for _, family := range experiment.FamilyNames() {
		for _, n := range []int{10, 100} {
			for _, m := range []int{1, 2, 8, 16} {
				for _, ul := range []float64{1.0, 1.5} {
					for _, seed := range []int64{1, 2, 3} {
						bilPair(t, experiment.CaseSpec{Name: "equiv-bil",
							Family: family, N: n, M: m, UL: ul, Seed: seed})
					}
				}
			}
		}
	}
	// Wide FFTs: ~1 000 tasks (ReferenceBIL ~0.2 s) in every tier,
	// ~2 000 (~1 s) only without -short.
	wide := []int{1000}
	if !testing.Short() {
		wide = append(wide, 2000)
	}
	for _, n := range wide {
		for _, ul := range []float64{1.0, 1.1} {
			bilPair(t, experiment.CaseSpec{Name: "equiv-bil-wide",
				Family: experiment.FFTFamily, N: n, M: 8, UL: ul, Seed: 1})
		}
	}
}

// TestEquivalenceUnderULExtensions pins the compiled paths against the
// reference on the §VIII scenario extensions, which exercise the
// per-task (TaskUL), per-processor (ProcUL) and custom-DurFn branches
// of the cost precomputation.
func TestEquivalenceUnderULExtensions(t *testing.T) {
	spec := experiment.CaseSpec{Name: "equiv-ext", Family: experiment.RandomFamily,
		N: 60, M: 4, UL: 1.2, Seed: 11}
	base, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	// The custom-DurFn branch: a uniform duration family whose mean
	// diverges from the Beta(2,5) closed form. Both legs read the same
	// scenario, so a DurFn bypass shared by both would go unnoticed
	// here; TestAvgCommFollowsDurFn checks the costs against the
	// family itself.
	durfn := *base
	durfn.DurFn = uniformDur
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
	for name, scen := range scens {
		for _, pair := range heuristicPairs {
			runPair(t, pair.name+"/"+name, scen, pair.opt, pair.ref)
		}
	}
	// λ sweep for SDHEFT on the variable-UL scenario.
	for _, lambda := range []float64{0, 0.5, 2} {
		l := lambda
		runPair(t, "SDHEFT/lambda", scens["variable-ul"],
			func(s *platform.Scenario) (heuristics.Result, error) { return heuristics.SDHEFT(s, l) },
			func(s *platform.Scenario) (heuristics.Result, error) { return heuristics.ReferenceSDHEFT(s, l) })
	}
}

func uniformDur(min, ul float64) stochastic.Dist {
	return stochastic.Uniform{Lo: min, Hi: min * ul}
}

// TestAvgCommFollowsDurFn checks that the placement-agnostic
// communication means behind HEFT's, BIL's and HBMCT's ranks come from
// the scenario's own duration family, as task means, concrete
// communication means and SDHEFT's costs do, and not from the
// Beta(2,5) closed form.
func TestAvgCommFollowsDurFn(t *testing.T) {
	base := caseScenario(t, experiment.CaseSpec{Name: "avgcomm-durfn",
		Family: experiment.RandomFamily, N: 30, M: 4, UL: 1.2, Seed: 11})
	scen := *base
	scen.DurFn = uniformDur
	cm, err := heuristics.NewCostModel(&scen)
	if err != nil {
		t.Fatal(err)
	}
	model := heuristics.NewModel(&scen)
	avgLat, avgTau := scen.P.AvgLat(), scen.P.AvgTau()
	// CSR edge ids are a pure function of the graph, so this flattening
	// numbers the edges as the cost model's does.
	csr := scen.G.CSR()
	for from := 0; from < csr.NumTasks; from++ {
		for k := csr.SuccStart[from]; k < csr.SuccStart[from+1]; k++ {
			to, e := csr.SuccAdj[k], csr.SuccEdge[k]
			want := scen.DurationAt(avgLat + csr.Vol[e]*avgTau).Mean()
			if got := cm.EdgeAvgComm[e]; got != want {
				t.Fatalf("EdgeAvgComm[%d->%d] = %v, want the family mean %v", from, to, got, want)
			}
			if got := model.AvgComm(dag.Task(from), dag.Task(to)); got != want {
				t.Fatalf("AvgComm(%d, %d) = %v, want the family mean %v", from, to, got, want)
			}
		}
	}
	// λ = 0 leaves SDHEFT with HEFT's mean costs.
	heft, err := heuristics.HEFT(&scen)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := heuristics.SDHEFT(&scen, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "HEFT vs SDHEFT(λ=0)", heft, sd)
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
