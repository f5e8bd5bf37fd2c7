package experiment

import (
	"math"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/stochastic"
)

// An uncertainty level outside [1, +Inf) used to be accepted: NaN and
// +Inf built a scenario whose evaluation panicked, and a level below 1
// silently ran deterministic durations.
func TestUncertaintyLevelValidation(t *testing.T) {
	for _, tc := range []struct {
		ul float64
		ok bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0.5, false},
		{0.999, false},
		{-1, false},
		{1, true},
		{1.01, true},
	} {
		spec := CaseSpec{Name: "ul", Family: CholeskyFamily, N: 10, M: 3, UL: tc.ul, Seed: 1}
		if _, err := spec.BuildScenario(); (err == nil) != tc.ok {
			t.Errorf("BuildScenario(UL=%v): err = %v, want accepted %v", tc.ul, err, tc.ok)
		}
		sweep := Sweep{Families: []string{CholeskyFamily}, Sizes: []int{10}, ULs: []float64{1.1, tc.ul}}
		if _, err := sweep.Cases(1); (err == nil) != tc.ok {
			t.Errorf("Sweep.Cases(UL=%v): err = %v, want accepted %v", tc.ul, err, tc.ok)
		}
	}
}

// FuzzBuildScenario builds small cases of every family at arbitrary
// sizes, uncertainty levels and seeds: construction must never panic,
// and an accepted scenario must have a finite UL >= 1 and give HEFT's
// schedule a finite, positive expected makespan.
func FuzzBuildScenario(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(3), 1.1, int64(1))
	f.Add(uint8(1), uint8(30), uint8(4), math.NaN(), int64(2))
	f.Add(uint8(2), uint8(20), uint8(2), math.Inf(1), int64(3))
	f.Add(uint8(3), uint8(15), uint8(4), 0.5, int64(4))
	families := FamilyNames()
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, family, n, m uint8, ul float64, seed int64) {
		spec := CaseSpec{
			Name:   "fuzz",
			Family: families[int(family)%len(families)],
			N:      int(n % 49),
			M:      int(m % 7),
			UL:     ul,
			Seed:   seed,
		}
		scen, err := spec.BuildScenario()
		if err != nil {
			return
		}
		if !(scen.UL >= 1) || math.IsInf(scen.UL, 1) {
			t.Fatalf("%+v: accepted UL %v", spec, scen.UL)
		}
		hr, err := heuristics.HEFT(scen)
		if err != nil {
			t.Fatalf("%+v: HEFT: %v", spec, err)
		}
		cache := makespan.NewEvalCacheAccuracy(scen, stochastic.AccuracyReference)
		met, err := evaluateOne(cache, hr.Schedule, cfg)
		if err != nil {
			t.Fatalf("%+v: evaluating HEFT's schedule: %v", spec, err)
		}
		if !(met.Makespan > 0) || math.IsInf(met.Makespan, 1) {
			t.Fatalf("%+v: expected makespan %v", spec, met.Makespan)
		}
	})
}
