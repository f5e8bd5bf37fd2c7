package makespan_test

// Equivalence tests for the model-holding metric entry points: Metrics,
// MetricsFromSamples and SlackIdentity must reproduce the retained
// robustness reference paths exactly (same slack vector, same
// distribution metrics), without the per-call disjunctive rebuild.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
	"repro/internal/schedule"
)

func metricsScenario(t *testing.T) (*makespan.EvalCache, *schedule.Schedule) {
	t.Helper()
	spec := experiment.CaseSpec{Name: "mm", Family: experiment.CholeskyFamily,
		N: 35, M: 3, UL: 1.3, Seed: 29}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	return makespan.NewEvalCache(scen, 64), heuristics.RandomSchedule(scen, rng)
}

func TestMetricsMatchesReference(t *testing.T) {
	cache, s := metricsScenario(t)
	scen := cache.Scenario()
	m, err := cache.Model(s)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := makespan.ReferenceEvaluateClassic(scen, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := robustness.Params{Delta: 0.1, Gamma: 1.0003, GridSize: 64}
	want, err := robustness.FromDistribution(scen, s, rv, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics(p); got != want {
		t.Errorf("Metrics differs from reference:\n  got  %+v\n  want %+v", got, want)
	}
}

func TestMetricsFromSamplesMatchesReference(t *testing.T) {
	cache, s := metricsScenario(t)
	scen := cache.Scenario()
	m, err := cache.Model(s)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := makespan.MonteCarlo(scen, s, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := robustness.Params{Delta: 0.1, Gamma: 1.0003, GridSize: 64}
	got := m.MetricsFromSamples(emp, p)
	want, err := robustness.FromSamples(scen, s, emp, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("MetricsFromSamples differs from reference:\n  got  %+v\n  want %+v", got, want)
	}
}

func TestSlackIdentityMatchesReference(t *testing.T) {
	cache, s := metricsScenario(t)
	scen := cache.Scenario()
	m, err := cache.Model(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SlackIdentity()
	if err != nil {
		t.Fatalf("compiled slack identity: %v", err)
	}
	want, err := robustness.VerifySlackIdentity(scen, s)
	if err != nil {
		t.Fatalf("reference slack identity: %v", err)
	}
	// cp is max(tl+bl) over all tasks; the reference maxes bl over
	// sources — equal up to summation-order rounding.
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("SlackIdentity critical path %g, reference %g", got, want)
	}
	if got <= 0 {
		t.Errorf("critical-path length %g, want > 0", got)
	}
}
