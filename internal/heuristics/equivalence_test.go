package heuristics_test

// The equivalence harness of the compiled scheduling layer: every
// heuristic must reproduce, on every registered workload family across
// sizes, uncertainty levels and seeds, the byte-identical schedule and
// bitwise-equal makespan its original straightforward implementation
// produced. This is what licensed the CostModel/timeline rewrites to
// claim "pure mechanical sympathy, zero behavior change".
//
// The original implementations are retired. Their results are frozen
// as digests, one file per test in testdata/, recorded while each
// harness still compared the compiled heuristic with its reference
// and found them equal (see internal/testdigest). Regenerate them only
// for a deliberate change of a heuristic's results, on amd64 and
// without -short:
//
//	go test ./internal/heuristics -run 'MatchReference|MatchesReference|ULExtensions' -update

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/stochastic"
	"repro/internal/testdigest"
)

// sdheft fixes SDHEFT's weight.
func sdheft(lambda float64) func(*platform.Scenario) (heuristics.Result, error) {
	return func(s *platform.Scenario) (heuristics.Result, error) { return heuristics.SDHEFT(s, lambda) }
}

// harnessHeuristics lists the heuristics whose results the harness
// pins.
var harnessHeuristics = []struct {
	name string
	fn   func(*platform.Scenario) (heuristics.Result, error)
}{
	{"HEFT", heuristics.HEFT},
	{"BIL", heuristics.BIL},
	{"HBMCT", heuristics.HBMCT},
	{"SDHEFT", sdheft(1)},
}

// assertIdentical fails unless the two results are exactly equal:
// same processor assignment, same per-processor orders, bitwise-equal
// makespan.
func assertIdentical(t *testing.T, label string, got, want heuristics.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Schedule.Proc, want.Schedule.Proc) {
		t.Fatalf("%s: processor assignments differ", label)
	}
	if !reflect.DeepEqual(got.Schedule.Order, want.Schedule.Order) {
		t.Fatalf("%s: per-processor orders differ", label)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %v != %v", label, got.Makespan, want.Makespan)
	}
}

// resultDigest is the digest of a result's processor assignment, its
// per-processor orders and its makespan's bits.
func resultDigest(r heuristics.Result) string {
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(len(r.Schedule.Proc))
	for _, p := range r.Schedule.Proc {
		put(p)
	}
	put(len(r.Schedule.Order))
	for _, tasks := range r.Schedule.Order {
		put(len(tasks))
		for _, task := range tasks {
			put(int(task))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Makespan))
	return testdigest.Sum(buf)
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

// runCell checks fn's result on scen against the frozen digest and
// validates its schedule.
func runCell(t *testing.T, frozen *testdigest.Set, label string, scen *platform.Scenario,
	fn func(*platform.Scenario) (heuristics.Result, error)) {
	t.Helper()
	res, err := fn(scen)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	frozen.Check(t, label, resultDigest(res))
	if err := res.Schedule.Validate(scen.G); err != nil {
		t.Fatalf("%s: schedule invalid: %v", label, err)
	}
}

// TestOptimizedHeuristicsMatchReference sweeps all registered workload
// families × sizes × uncertainty levels × seeds. The n=1000 tier
// exercises deep timelines and large HBMCT groups; it runs only
// without -short (the weekly full CI job), one seed × one UL per
// family, the grid its digests were recorded on.
func TestOptimizedHeuristicsMatchReference(t *testing.T) {
	sizes := []int{10, 100}
	if !testing.Short() {
		sizes = append(sizes, 1000)
	}
	uls := []float64{1.0, 1.5}
	seeds := []int64{1, 2, 3}
	frozen := testdigest.Load(t)
	for _, family := range experiment.FamilyNames() {
		for _, n := range sizes {
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
					for _, h := range harnessHeuristics {
						label := h.name + "/" + family + "/n=" +
							itoa(n) + "/ul=" + ftoa(ul) + "/seed=" + itoa(int(seed))
						runCell(t, frozen, label, scen, h.fn)
					}
				}
			}
		}
	}
}

// TestBILMatchesReferenceAcrossProcessorCounts pins BIL's incremental
// ready-set priorities against the reference's frozen results beyond
// the m = 4 of the sweep above: m = 1 (a single order entry), m = 2
// and the n = 10 cells at m ≥ 8 (ready sets narrower than m, so
// k = #ready < m), and UL 1.0 (deterministic costs, where equal BIMs
// and equal priorities are common). The wide FFT cells keep over a
// hundred tasks ready at once, whose orders are revised after every
// placement.
func TestBILMatchesReferenceAcrossProcessorCounts(t *testing.T) {
	frozen := testdigest.Load(t)
	bilPair := func(t *testing.T, spec experiment.CaseSpec) {
		t.Helper()
		scen := caseScenario(t, spec)
		if scen == nil {
			return
		}
		label := "BIL/" + spec.Family + "/n=" + itoa(spec.N) + "/m=" + itoa(spec.M) +
			"/ul=" + ftoa(spec.UL) + "/seed=" + itoa(int(spec.Seed))
		runCell(t, frozen, label, scen, heuristics.BIL)
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
	// Wide FFTs: ~1 000 tasks in every tier, ~2 000 only without
	// -short.
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

// TestEquivalenceUnderULExtensions pins the compiled paths to the
// references' results on the §VIII scenario extensions, which exercise
// the per-task (TaskUL), per-processor (ProcUL) and custom-DurFn
// branches of the cost precomputation.
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
	frozen := testdigest.Load(t)
	scens := map[string]*platform.Scenario{
		"variable-ul":  varUL,
		"noisy-procs":  noisy,
		"custom-durfn": &durfn,
	}
	for name, scen := range scens {
		for _, h := range harnessHeuristics {
			runCell(t, frozen, h.name+"/"+name, scen, h.fn)
		}
	}
	// λ sweep for SDHEFT on the variable-UL scenario.
	for _, lambda := range []float64{0, 0.5, 2} {
		runCell(t, frozen, "SDHEFT/variable-ul/lambda="+ftoa(lambda), scens["variable-ul"], sdheft(lambda))
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

// The schedulers must reject the uncertainty levels evaluation
// rejects: a TaskUL or ProcUL without one level per task or processor
// used to leave the uncovered ones at the global UL, and a NaN UL gave
// NaN costs and a makespan of 0.
func TestHeuristicsCheckLevels(t *testing.T) {
	base := caseScenario(t, experiment.CaseSpec{Name: "levels",
		Family: experiment.CholeskyFamily, N: 10, M: 3, UL: 1.1, Seed: 1})
	shortTask, shortProc, nanUL := *base, *base, *base
	shortTask.TaskUL = []float64{3, 3, 3}
	shortProc.ProcUL = []float64{2}
	nanUL.UL = math.NaN()
	for name, scen := range map[string]*platform.Scenario{
		"3-entry TaskUL": &shortTask, "1-entry ProcUL": &shortProc, "NaN UL": &nanUL,
	} {
		for _, h := range []struct {
			name string
			fn   func(*platform.Scenario) (heuristics.Result, error)
		}{
			{"HEFT", heuristics.HEFT}, {"BIL", heuristics.BIL},
			{"HBMCT", heuristics.HBMCT}, {"SDHEFT", sdheft(1)},
		} {
			if res, err := h.fn(scen); err == nil {
				t.Errorf("%s: %s scheduled it (makespan %v)", name, h.name, res.Makespan)
			}
		}
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
