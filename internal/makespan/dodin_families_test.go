// External test package: pulls in the workload registry (experiment
// imports makespan, so the in-package tests cannot) to run the
// compiled-vs-legacy Dodin differential over every registered family.
package makespan_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
)

// Acceptance harness: on every registered workload family the compiled
// EvalModel.Dodin must match the legacy ReferenceEvaluateDodin within
// differential tolerance. Both sides use the documented
// reduction-failure fallback (the classical method) — the reference has
// none of its own, so the test applies it — and the comparison holds
// regardless of which reducer completes strictly.
func TestCompiledDodinMatchesLegacyOnAllFamilies(t *testing.T) {
	for _, family := range experiment.FamilyNames() {
		family := family
		t.Run(family, func(t *testing.T) {
			spec := experiment.CaseSpec{
				Name: family, Family: family, N: 30, M: 4, UL: 1.2, Seed: 17,
			}
			scen, err := spec.BuildScenario()
			if err != nil {
				t.Fatalf("building %s scenario: %v", family, err)
			}
			rng := rand.New(rand.NewSource(23))
			cache := makespan.NewEvalCache(scen, 0)
			for trial := 0; trial < 3; trial++ {
				s := heuristics.RandomSchedule(scen, rng)
				m, err := cache.Model(s)
				if err != nil {
					t.Fatal(err)
				}
				got := m.Dodin()
				want, err := makespan.ReferenceEvaluateDodin(scen, s, 0)
				if makespan.IsReductionError(err) {
					want, err = makespan.EvaluateClassic(scen, s, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got.Mean() - want.Mean()); d > 0.05*want.Mean() {
					t.Errorf("trial %d: compiled Dodin mean %g vs legacy %g", trial, got.Mean(), want.Mean())
				}
				if d := math.Abs(got.StdDev() - want.StdDev()); d > 0.10*want.StdDev()+1e-9 {
					t.Errorf("trial %d: compiled Dodin std %g vs legacy %g", trial, got.StdDev(), want.StdDev())
				}
			}
		})
	}
}
