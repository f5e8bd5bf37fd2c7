package makespan

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

func modelFor(t *testing.T, scen *platform.Scenario, s *schedule.Schedule) *EvalModel {
	t.Helper()
	m, err := NewEvalCache(scen, 0).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The compiled reduction must agree with the legacy map-based reference
// on fully series-parallel structures, where both complete without
// duplication.
func TestCompiledDodinMatchesLegacyOnSP(t *testing.T) {
	// Chain on one processor.
	g := graphgen.Chain(4, 0)
	scen := uniformScenario(g, 1, 10, 1.3)
	s := allOnProc(t, g, 1, 0)
	got, err := modelFor(t, scen, s).Dodin()
	if err != nil {
		t.Fatalf("compiled Dodin failed on a chain: %v", err)
	}
	want, err := ReferenceEvaluateDodin(scen, s, 64)
	if err != nil {
		t.Fatalf("legacy Dodin failed on a chain: %v", err)
	}
	if !almostEqual(got.Mean(), want.Mean(), 1e-6*want.Mean()) {
		t.Errorf("chain: compiled mean %g vs legacy %g", got.Mean(), want.Mean())
	}
	if !almostEqual(got.StdDev(), want.StdDev(), 1e-6*want.StdDev()+1e-9) {
		t.Errorf("chain: compiled std %g vs legacy %g", got.StdDev(), want.StdDev())
	}

	// Fork-join across processors (parallel rule + comm arcs).
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
	want2, err := ReferenceEvaluateDodin(scen2, s2, 64)
	if err != nil {
		t.Fatalf("legacy Dodin failed on fork-join: %v", err)
	}
	// Reduction order differs (worklist vs index rescans), so agreement
	// is to numeric tolerance, not bit-exact.
	if !almostEqual(got2.Mean(), want2.Mean(), 1e-3*want2.Mean()) {
		t.Errorf("fork-join: compiled mean %g vs legacy %g", got2.Mean(), want2.Mean())
	}
	if !almostEqual(got2.StdDev(), want2.StdDev(), 1e-2*want2.StdDev()+1e-6) {
		t.Errorf("fork-join: compiled std %g vs legacy %g", got2.StdDev(), want2.StdDev())
	}
}

// On general random schedules (duplication path) the compiled and
// legacy reductions make the same approximation with different
// reduction orders; both must stay close to the classical evaluation
// and to each other.
func TestCompiledDodinMatchesLegacyOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	bothSucceeded := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		g, w := graphgen.Random(10, rng)
		tau, lat := platform.NewUniformNetwork(3, 1, 0)
		scen := &platform.Scenario{
			G:  g,
			P:  &platform.Platform{M: 3, ETC: platform.GenerateETCFromWeights(w, 3, 0.5, rng), Tau: tau, Lat: lat},
			UL: 1.1,
		}
		s := heuristics.RandomSchedule(scen, rng)
		m := modelFor(t, scen, s)
		got, gotErr := m.Dodin()
		want, wantErr := ReferenceEvaluateDodin(scen, s, 64)
		cls := m.Classic()
		if gotErr == nil && !almostEqual(got.Mean(), cls.Mean(), 0.05*cls.Mean()) {
			t.Errorf("trial %d: compiled Dodin mean %g vs classic %g", i, got.Mean(), cls.Mean())
		}
		if gotErr != nil && !IsReductionError(gotErr) {
			t.Errorf("trial %d: compiled failure is not a ReductionError: %v", i, gotErr)
		}
		if gotErr == nil && wantErr == nil {
			bothSucceeded++
			if !almostEqual(got.Mean(), want.Mean(), 0.05*want.Mean()) {
				t.Errorf("trial %d: compiled mean %g vs legacy %g", i, got.Mean(), want.Mean())
			}
		}
	}
	t.Logf("compiled and legacy Dodin both completed %d/%d random schedules", bothSucceeded, trials)
	if bothSucceeded == 0 {
		t.Error("compiled Dodin never succeeded alongside legacy — reduction is dead code")
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

// Reduction failures must be typed (*ReductionError) on both the legacy
// and the compiled path — the regression tests for the no-silent-
// fallback sweep. The budget path is forced with a 1-node budget on the
// smallest non-series-parallel pattern (the "N": a→c, a→d, b→d), which
// needs a duplication to reduce.
func TestReductionErrorTyped(t *testing.T) {
	build := func(add func(u, v int)) {
		// Nodes 0..3 with the N-structure; no reduction rule applies,
		// so the reducer must ask for a duplication immediately.
		add(0, 2)
		add(0, 3)
		add(1, 3)
	}

	// Legacy rvGraph.
	lg := newRVGraph(64)
	for i := 0; i < 4; i++ {
		lg.addNode(stochastic.NewPoint(float64(i + 1)))
	}
	build(func(u, v int) { lg.addEdge(u, v, stochastic.NewPoint(0)) })
	_, err := lg.reduce(1)
	var re *ReductionError
	if !errors.As(err, &re) {
		t.Fatalf("legacy reduce(1) returned %T (%v), want *ReductionError", err, err)
	}
	if re.Stuck || re.Budget != 1 || re.Live != 4 || re.Total != 4 {
		t.Errorf("legacy ReductionError fields = %+v", re)
	}
	if !IsReductionError(err) {
		t.Error("IsReductionError(legacy) = false")
	}

	// Compiled spGraph.
	ops := &stochastic.Ops{}
	cg := newSPGraph(stochastic.AccuracyReference, ops, 4)
	for i := 0; i < 4; i++ {
		cg.addNode(stochastic.NewPoint(float64(i+1)), false)
	}
	build(func(u, v int) { cg.addEdge(int32(u), int32(v), stochastic.NewPoint(0), false) })
	_, err = cg.reduce(1)
	if !errors.As(err, &re) {
		t.Fatalf("compiled reduce(1) returned %T (%v), want *ReductionError", err, err)
	}
	if re.Stuck || re.Budget != 1 || re.Live != 4 || re.Total != 4 {
		t.Errorf("compiled ReductionError fields = %+v", re)
	}

	// With a real budget both reducers clear the same structure via one
	// duplication.
	lg2 := newRVGraph(64)
	for i := 0; i < 4; i++ {
		lg2.addNode(stochastic.NewPoint(1))
	}
	build(func(u, v int) { lg2.addEdge(u, v, stochastic.NewPoint(0)) })
	if _, err := lg2.reduce(100); err != nil {
		t.Errorf("legacy reduce(100) on the N-structure: %v", err)
	}
	cg2 := newSPGraph(stochastic.AccuracyReference, ops, 4)
	for i := 0; i < 4; i++ {
		cg2.addNode(stochastic.NewPoint(1), false)
	}
	build(func(u, v int) { cg2.addEdge(int32(u), int32(v), stochastic.NewPoint(0), false) })
	if _, err := cg2.reduce(100); err != nil {
		t.Errorf("compiled reduce(100) on the N-structure: %v", err)
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
