package makespan

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
	"repro/internal/testdigest"
)

func modelFor(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) *EvalModel {
	t.Helper()
	m, err := NewEvalCache(scen, 0).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// On fully series-parallel structures — a chain on one processor and a
// fork-join across processors (parallel rule plus communication arcs) —
// the reduction finishes without duplication and reproduces the
// densities frozen when it was checked against the retired map-based
// reducer (means within 1e-6 and 1e-3, standard deviations within
// 1e-6 and 1e-2, relative).
func TestCompiledDodinMatchesLegacyOnSP(t *testing.T) {
	frozen := testdigest.Load(t)
	g := graphgen.Chain(4, 0)
	scen := uniformScenario(g, 1, 10, 1.3)
	s := allOnProc(t, g, 1, 0)
	got, err := modelFor(t, scen, s).Dodin()
	if err != nil {
		t.Fatalf("compiled Dodin failed on a chain: %v", err)
	}
	frozen.Check(t, "chain", DodinDigest(got, nil))

	fj := graphgen.ForkJoin(3, 0)
	scen2 := uniformScenario(fj, 3, 10, 1.5)
	s2 := schedule.New(5, 3)
	s2.Assign(0, 0)
	s2.Assign(1, 0)
	s2.Assign(2, 1)
	s2.Assign(3, 2)
	s2.Assign(4, 0)
	got2, err := modelFor(t, scen2, s2).Dodin()
	if err != nil {
		t.Fatalf("compiled Dodin failed on fork-join: %v", err)
	}
	frozen.Check(t, "fork-join", DodinDigest(got2, nil))
}

// On general random schedules (the duplication path) the reduction
// reproduces the density or the *ReductionError frozen when it was
// checked against the retired map-based reducer, which made the same
// approximation in a different reduction order: both finished all ten
// schedules, with means within 5% of each other.
func TestCompiledDodinMatchesLegacyOnRandom(t *testing.T) {
	frozen := testdigest.Load(t)
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 10; i++ {
		g, w := graphgen.Random(10, rng)
		tau, lat := platform.NewUniformNetwork(3, 1, 0)
		scen := &platform.Scenario{
			G:  g,
			P:  &platform.Platform{M: 3, ETC: platform.GenerateETCFromWeights(w, 3, 0.5, rng), Tau: tau, Lat: lat},
			UL: 1.1,
		}
		s := heuristics.RandomSchedule(scen, rng)
		got, err := modelFor(t, scen, s).Dodin()
		if err != nil && !IsReductionError(err) {
			t.Errorf("trial %d: failure is not a ReductionError: %v", i, err)
		}
		frozen.Check(t, "trial="+strconv.Itoa(i), DodinDigest(got, err))
	}
}

// On a 20-task random schedule EvalModel.Dodin's reduction finishes
// and stays close to the classical result.
func TestEvalModelDodinFinishesNearClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g, w := graphgen.Random(20, rng)
	tau, lat := platform.NewUniformNetwork(3, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 3, ETC: platform.GenerateETCFromWeights(w, 3, 0.5, rng), Tau: tau, Lat: lat},
		UL: 1.1,
	}
	s := heuristics.RandomSchedule(scen, rng)
	m := modelFor(t, scen, s)
	rv, err := m.Dodin()
	if err != nil {
		t.Fatal(err)
	}
	cls := m.Classic()
	if !almostEqual(rv.Mean(), cls.Mean(), 0.05*cls.Mean()) {
		t.Errorf("Dodin mean %g vs classic %g", rv.Mean(), cls.Mean())
	}
}

// The compiled reduction under the fast/coarse presets must stay close
// to the reference-accuracy result.
func TestCompiledDodinAccuracyPresets(t *testing.T) {
	g := graphgen.ForkJoin(3, 0)
	scen := uniformScenario(g, 3, 10, 1.5)
	s := schedule.New(5, 3)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 1)
	s.Assign(3, 2)
	s.Assign(4, 0)
	ref, err := NewEvalCacheAccuracy(scen, stochastic.AccuracyReference).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Dodin()
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []stochastic.EvalAccuracy{stochastic.AccuracyFast, stochastic.AccuracyCoarse} {
		m, err := NewEvalCacheAccuracy(scen, acc).Model(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Dodin()
		if err != nil {
			t.Fatalf("%v: %v", acc, err)
		}
		if !almostEqual(got.Mean(), want.Mean(), 0.02*want.Mean()) {
			t.Errorf("%v: Dodin mean %g vs reference %g", acc, got.Mean(), want.Mean())
		}
	}
}

// Reduction failures must be typed (*ReductionError) — the regression
// test for the no-silent-fallback sweep. The budget path is forced with
// a 1-node budget on the smallest non-series-parallel pattern (the "N":
// a→c, a→d, b→d), which needs a duplication to reduce.
func TestReductionErrorTyped(t *testing.T) {
	build := func(add func(u, v int)) {
		// Nodes 0..3 with the N-structure; no reduction rule applies,
		// so the reducer must ask for a duplication immediately.
		add(0, 2)
		add(0, 3)
		add(1, 3)
	}

	ops := &stochastic.Ops{}
	cg := newSPGraph(stochastic.AccuracyReference, ops, 4)
	for i := 0; i < 4; i++ {
		cg.addNode(stochastic.NewPoint(float64(i+1)), false)
	}
	build(func(u, v int) { cg.addEdge(int32(u), int32(v), stochastic.NewPoint(0), false) })
	_, err := cg.reduce(1)
	var re *ReductionError
	if !errors.As(err, &re) {
		t.Fatalf("reduce(1) returned %T (%v), want *ReductionError", err, err)
	}
	if re.Stuck || re.Budget != 1 || re.Live != 4 || re.Total != 4 {
		t.Errorf("ReductionError fields = %+v", re)
	}
	if !IsReductionError(err) {
		t.Error("IsReductionError = false")
	}

	// With a real budget the reducer clears the same structure via one
	// duplication.
	cg2 := newSPGraph(stochastic.AccuracyReference, ops, 4)
	for i := 0; i < 4; i++ {
		cg2.addNode(stochastic.NewPoint(1), false)
	}
	build(func(u, v int) { cg2.addEdge(int32(u), int32(v), stochastic.NewPoint(0), false) })
	if _, err := cg2.reduce(100); err != nil {
		t.Errorf("reduce(100) on the N-structure: %v", err)
	}

	// Error strings: both variants must render.
	if (&ReductionError{Live: 3, Total: 9, Budget: 5}).Error() == "" ||
		(&ReductionError{Live: 3, Stuck: true}).Error() == "" {
		t.Error("ReductionError must render a message")
	}
}

// EvaluateDodin must propagate non-reduction errors (invalid schedule)
// instead of silently falling back to the classical method.
func TestEvaluateDodinPropagatesStructuralErrors(t *testing.T) {
	g := graphgen.Chain(3, 1)
	scen := uniformScenario(g, 2, 10, 1.1)
	incomplete := schedule.New(3, 2)
	_, err := EvaluateDodin(scen, incomplete, 64)
	if err == nil {
		t.Fatal("EvaluateDodin accepted an incomplete schedule")
	}
	if IsReductionError(err) {
		t.Errorf("invalid-schedule error misclassified as ReductionError: %v", err)
	}
}
