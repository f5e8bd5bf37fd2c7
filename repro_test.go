package repro

import (
	"math"
	"testing"

	"repro/internal/makespan"
	"repro/internal/robustness"
)

func TestFacadeScenarios(t *testing.T) {
	cases := []struct {
		name string
		fn   func() (*Scenario, error)
		n    int
	}{
		{"random", func() (*Scenario, error) { return NewRandomScenario(20, 4, 1.1, 1) }, 20},
		{"cholesky", func() (*Scenario, error) { return NewCholeskyScenario(3, 3, 1.01, 2) }, 10},
		{"gausselim", func() (*Scenario, error) { return NewGaussElimScenario(5, 3, 1.1, 3) }, 14},
	}
	for _, c := range cases {
		scen, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if scen.G.N() != c.n {
			t.Errorf("%s: %d tasks, want %d", c.name, scen.G.N(), c.n)
		}
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	fams := Families()
	if len(fams) < 9 {
		t.Fatalf("only %d workload families: %v", len(fams), fams)
	}
	for _, name := range []string{"random", "cholesky", "gausselim", "join",
		"intree", "outtree", "seriesparallel", "fft", "strassen", "stg"} {
		found := false
		for _, f := range fams {
			if f == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %q missing from Families(): %v", name, fams)
			continue
		}
		n := 12
		if name == "strassen" {
			n = 25
		}
		scen, err := NewScenario(name, n, 3, 1.1, 7)
		if err != nil {
			t.Fatalf("NewScenario(%q, %d): %v", name, n, err)
		}
		if scen.G.N() == 0 || !scen.G.IsAcyclic() {
			t.Errorf("NewScenario(%q): degenerate graph", name)
		}
	}
	if _, err := NewScenario("no-such-family", 10, 3, 1.1, 1); err == nil {
		t.Error("unknown family accepted")
	}
	// Unachievable sizes are errors, not clamped graphs.
	if _, err := NewScenario("strassen", 100, 3, 1.1, 1); err == nil {
		t.Error("unachievable strassen size accepted")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	scen, err := NewCholeskyScenario(3, 3, 1.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		name string
		fn   func(*Scenario) (HeuristicResult, error)
	}{{"HEFT", HEFT}, {"BIL", BIL}, {"HBMCT", HBMCT}} {
		res, err := h.fn(scen)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if err := res.Schedule.Validate(scen.G); err != nil {
			t.Fatalf("%s: invalid schedule: %v", h.name, err)
		}
		m, err := ComputeMetrics(scen, res.Schedule)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if m.Makespan <= 0 || m.StdDev <= 0 {
			t.Errorf("%s: degenerate metrics %+v", h.name, m)
		}
		// The analytic mean matches Monte Carlo within 1%.
		emp, err := MonteCarlo(scen, res.Schedule, 20000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Makespan-emp.Mean()) > 0.01*emp.Mean() {
			t.Errorf("%s: analytic mean %g vs MC %g", h.name, m.Makespan, emp.Mean())
		}
	}
}

// ComputeMetricsWith must check the scenario's uncertainty levels as
// ComputeMetrics does: a 3-entry TaskUL used to return slack metrics
// that ran the uncovered tasks at the global UL. On valid input it
// returns ComputeMetrics' bits for the same distribution.
func TestComputeMetricsWithChecksLevels(t *testing.T) {
	scen, err := NewCholeskyScenario(3, 3, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomSchedule(scen, 1)
	rv, err := MakespanDistribution(scen, s, makespan.Classic)
	if err != nil {
		t.Fatal(err)
	}
	p := robustness.DefaultParams()
	bad := *scen
	bad.TaskUL = []float64{3, 3, 3}
	if m, err := ComputeMetricsWith(&bad, s, rv, p); err == nil {
		t.Errorf("3-entry TaskUL accepted: AvgSlack %v", m.AvgSlack)
	}
	want, err := ComputeMetrics(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeMetricsWith(scen, s, rv, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ComputeMetricsWith %+v, ComputeMetrics %+v", got, want)
	}
}

// ComputeMetricsWith must reject the δ and γ the probabilistic metrics
// are undefined for. On Fig. 3's Cholesky case a NaN δ panicked in the
// CDF lookup, δ = -1 silently gave A = 0, and γ = 0.5 or NaN silently
// gave R = 0.
func TestComputeMetricsWithRejectsBadParams(t *testing.T) {
	scen, err := NewCholeskyScenario(3, 3, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomSchedule(scen, 1)
	rv, err := MakespanDistribution(scen, s, makespan.Classic)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []MetricParams{
		{Delta: nan, Gamma: 1.0003}, {Delta: -1, Gamma: 1.0003}, {Delta: inf, Gamma: 1.0003},
		{Delta: 0.1, Gamma: 0.5}, {Delta: 0.1, Gamma: nan}, {Delta: 0.1, Gamma: inf},
		{Delta: 0.1, Gamma: 0},
	} {
		if m, err := ComputeMetricsWith(scen, s, rv, p); err == nil {
			t.Errorf("δ = %v, γ = %v accepted: A = %v, R = %v", p.Delta, p.Gamma, m.AbsProb, m.RelProb)
		}
	}
	if _, err := ComputeMetricsWith(scen, s, rv, MetricParams{Delta: 0, Gamma: 1}); err != nil {
		t.Errorf("δ = 0, γ = 1 rejected: %v", err)
	}
}

func TestFacadeMethodsAgree(t *testing.T) {
	scen, err := NewRandomScenario(15, 3, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomSchedule(scen, 11)
	rvClassic, err := MakespanDistribution(scen, s, MethodClassic)
	if err != nil {
		t.Fatal(err)
	}
	rvDodin, err := MakespanDistribution(scen, s, MethodDodin)
	if err != nil {
		t.Fatal(err)
	}
	rvSpelde, err := MakespanDistribution(scen, s, MethodSpelde)
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{rvClassic.Mean(), rvDodin.Mean(), rvSpelde.Mean()}
	for i := 1; i < len(means); i++ {
		if math.Abs(means[i]-means[0]) > 0.05*means[0] {
			t.Errorf("method %d mean %g deviates from classic %g", i, means[i], means[0])
		}
	}
	sim, err := NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.MinTiming().Makespan; got > means[0] {
		t.Errorf("min-duration makespan %g exceeds expected makespan %g", got, means[0])
	}
}

// The facade's Dodin must be the compiled EvalModel.Dodin, bit for bit:
// one production Dodin path, with the map-based reducer kept only as a
// test reference.
func TestFacadeDodinMatchesModel(t *testing.T) {
	for _, family := range []string{"random", "fft", "cholesky"} {
		for seed := int64(1); seed <= 6; seed++ {
			scen, err := NewScenario(family, 30, 4, 1.2, seed)
			if err != nil {
				t.Fatal(err)
			}
			s := RandomSchedule(scen, seed+100)
			got, err := MakespanDistribution(scen, s, MethodDodin)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewEvalCache(scen, 0).Model(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Dodin()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s seed %d: facade Dodin mean %.12g differs from EvalModel.Dodin mean %.12g",
					family, seed, got.Mean(), want.Mean())
			}
		}
	}
}

// A Dodin reduction that cannot finish is an error, never Classic's
// density under Dodin's name. Random schedules of the 1 000-task FFT
// exhaust the duplication budget.
func TestFacadeDodinReturnsReductionError(t *testing.T) {
	scen, err := NewScenario("fft", 1000, 8, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MakespanDistribution(scen, RandomSchedule(scen, 101), MethodDodin)
	if !makespan.IsReductionError(err) {
		t.Fatalf("MakespanDistribution(MethodDodin) error = %v, want a reduction error", err)
	}
}

// sameBits reports whether two makespan distributions have identical
// supports and densities down to the last bit.
func sameBits(a, b *MakespanRV) bool {
	if a.IsPoint() != b.IsPoint() ||
		math.Float64bits(a.Lo()) != math.Float64bits(b.Lo()) ||
		math.Float64bits(a.Hi()) != math.Float64bits(b.Hi()) {
		return false
	}
	pa, pb := a.PDFGrid(), b.PDFGrid()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			return false
		}
	}
	return true
}
