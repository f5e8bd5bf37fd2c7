package makespan_test

// Property tests for EvalAccuracy at the evaluation-model level: every
// preset must survive the degenerate scenarios exactly, and the full
// classical recurrence must converge toward the 64-point reference as
// the density grid grows.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// Degenerate scenarios (single task, all-Dirac, zero-duration chain)
// must evaluate exactly — not approximately — at every accuracy preset,
// because Dirac arithmetic never touches the grid.
func TestEvalModelDegenerateAtEveryPreset(t *testing.T) {
	single := uniformScen(dag.New(1), 2, 10, 1.4)
	s1 := schedule.New(1, 2)
	s1.Assign(0, 1)

	g := dag.New(4)
	for _, e := range [][2]dag.Task{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 3); err != nil {
			t.Fatal(err)
		}
	}
	det := uniformScen(g, 2, 10, 1)
	s2 := schedule.New(4, 2)
	s2.Assign(0, 0)
	s2.Assign(1, 0)
	s2.Assign(2, 1)
	s2.Assign(3, 0)
	refDet, err := makespan.Evaluate(det, s2, makespan.Classic, 64)
	if err != nil {
		t.Fatal(err)
	}

	chain := dag.New(3)
	if err := chain.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := chain.AddEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	zero := uniformScen(chain, 2, 0, 1.5)
	s3 := schedule.New(3, 2)
	s3.Assign(0, 0)
	s3.Assign(1, 1)
	s3.Assign(2, 0)

	for _, name := range stochastic.AccuracyNames() {
		acc, _ := stochastic.AccuracyByName(name)
		t.Run(name, func(t *testing.T) {
			// Single task: the makespan is the task's own distribution,
			// independent of accuracy.
			m, err := makespan.NewEvalCacheAccuracy(single, acc).Model(s1)
			if err != nil {
				t.Fatal(err)
			}
			d := single.TaskDist(0, 1)
			lo, hi := d.Support()
			if rv := m.Classic(); rv.Lo() != lo || rv.Hi() != hi {
				t.Errorf("single-task support [%g,%g], want [%g,%g]", rv.Lo(), rv.Hi(), lo, hi)
			}

			// All-Dirac: a point equal to the reference at every preset.
			m2, err := makespan.NewEvalCacheAccuracy(det, acc).Model(s2)
			if err != nil {
				t.Fatal(err)
			}
			if rv := m2.Classic(); !rv.IsPoint() || rv.Lo() != refDet.Lo() {
				t.Errorf("all-Dirac makespan %v, want point at %g", rv, refDet.Lo())
			}

			// Zero-duration chain: point at 0 regardless of accuracy.
			m3, err := makespan.NewEvalCacheAccuracy(zero, acc).Model(s3)
			if err != nil {
				t.Fatal(err)
			}
			if rv := m3.Classic(); !rv.IsPoint() || rv.Lo() != 0 {
				t.Errorf("zero-duration chain makespan %v, want point at 0", rv)
			}
		})
	}
}

// Property: the classical evaluation converges (monotonically, with 10%
// slack) toward the 64-point reference as the density grid grows, on a
// real registry case.
func TestEvalModelGridConvergence(t *testing.T) {
	spec := experiment.CaseSpec{Name: "conv", Family: experiment.CholeskyFamily,
		N: 35, M: 3, UL: 1.4, Seed: 43}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	s := heuristics.RandomSchedule(scen, rng)
	refModel, err := makespan.NewEvalCacheAccuracy(scen, stochastic.AccuracyReference).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	ref := refModel.Classic()

	errAt := func(acc stochastic.EvalAccuracy) float64 {
		m, err := makespan.NewEvalCacheAccuracy(scen, acc).Model(s)
		if err != nil {
			t.Fatal(err)
		}
		rv := m.Classic()
		e := math.Abs(rv.Mean()-ref.Mean()) / ref.Mean()
		e = math.Max(e, math.Abs(rv.StdDev()-ref.StdDev())/(ref.StdDev()+1e-12))
		for _, q := range []float64{0.1, 0.5, 0.9} {
			e = math.Max(e, math.Abs(rv.Quantile(q)-ref.Quantile(q))/ref.Mean())
		}
		return e
	}

	prev := math.Inf(1)
	for _, grid := range []int{8, 16, 32, 48} {
		e := errAt(stochastic.EvalAccuracy{GridSize: grid})
		t.Logf("grid %2d: max relative error %.3e", grid, e)
		if e > 1.1*prev+1e-12 {
			t.Errorf("grid %d error %.3e worse than coarser grid's %.3e — not converging", grid, e, prev)
		}
		prev = e
	}
	if prev > 0.02 {
		t.Errorf("grid 48 error %.3e, want < 2%%", prev)
	}

	// The named presets stay close to reference on a real case: fast
	// within 2%, coarse within 5%.
	for name, tol := range map[string]float64{"fast": 0.02, "coarse": 0.05} {
		acc, _ := stochastic.AccuracyByName(name)
		if e := errAt(acc); e > tol {
			t.Errorf("%s preset max relative error %.3e, want < %g", name, e, tol)
		}
	}
}
