// External test package: pulls in the workload registry (experiment
// imports makespan, so the in-package tests cannot) to pin Dodin's
// results over every registered family.
package makespan_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/testdigest"
)

// Acceptance harness: on every registered workload family EvalModel.Dodin
// must reproduce, bit for bit, the density or the *ReductionError it
// gave when it was recorded, while the retired map-based reducer still
// ran beside it: the two agreed on whether the reduction finishes, and
// where both finished their means were within 5% and their standard
// deviations within 10%. Dodin's accuracy oracles are its closeness to
// Classic (TestDodinStrictOnRandomSchedules,
// TestEvalModelDodinFinishesNearClassic) and
// TestDodinExactOnSeriesParallel's Monte-Carlo-truth band.
func TestCompiledDodinMatchesLegacyOnAllFamilies(t *testing.T) {
	frozen := testdigest.Load(t)
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
				if gotErr != nil && !makespan.IsReductionError(gotErr) {
					t.Fatalf("trial %d: Dodin failed with a structural error: %v", trial, gotErr)
				}
				frozen.Check(t, family+"/trial="+itoa(trial), makespan.DodinDigest(got, gotErr))
			}
		})
	}
}
