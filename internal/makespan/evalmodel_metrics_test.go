package makespan_test

// Tests of the model-holding metric entry points: Metrics must
// reproduce the metric vector the uncompiled robustness path computed
// (frozen as a digest), and the slack vector must satisfy the paper's
// §V identity.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/testdigest"
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
	m, err := cache.Model(s)
	if err != nil {
		t.Fatal(err)
	}
	p := robustness.Params{Delta: 0.1, Gamma: 1.0003, GridSize: 64}
	v := m.Metrics(p).Vector()
	var buf []byte
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	testdigest.Load(t).Check(t, "metrics", testdigest.Sum(buf))
}

// TestSlackIdentityMatchesReference runs the paper's §V consistency
// test on the compiled slack vector: the critical path the slacks are
// measured against is the eager makespan with every duration at its
// mean. So the task that finishes last then has zero slack, and no
// task has more slack than the time between its finish and that
// makespan (its slack is cp − bl − tl, its start is tl, and bl is at
// least its own duration).
func TestSlackIdentityMatchesReference(t *testing.T) {
	cache, s := metricsScenario(t)
	m, err := cache.Model(s)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := schedule.NewSimulator(cache.Scenario(), s)
	if err != nil {
		t.Fatal(err)
	}
	mean := sim.MeanTiming()
	slacks := m.Slacks()
	tol := 1e-9 * mean.Makespan
	last := 0
	for task, slack := range slacks {
		if mean.Finish[task] > mean.Finish[last] {
			last = task
		}
		if spare := mean.Makespan - mean.Finish[task]; slack > spare+tol {
			t.Errorf("task %d: slack %g exceeds the %g between its finish and the makespan", task, slack, spare)
		}
	}
	if slacks[last] > tol {
		t.Errorf("task %d finishes last at %g but has slack %g", last, mean.Makespan, slacks[last])
	}
}
