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
// EvalModel.Dodin and the legacy ReferenceEvaluateDodin must agree on
// whether the reduction finishes, and when both finish their densities
// must match within differential tolerance.
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
				got, gotErr := m.Dodin()
				want, wantErr := makespan.ReferenceEvaluateDodin(scen, s, 0)
				if makespan.IsReductionError(gotErr) && makespan.IsReductionError(wantErr) {
					continue
				}
				if gotErr != nil || wantErr != nil {
					t.Fatalf("trial %d: compiled Dodin error %v, legacy error %v", trial, gotErr, wantErr)
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
