package schedule

import (
	"sync"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/stochastic"
)

// Timing is the outcome of executing a schedule with concrete
// durations.
type Timing struct {
	Start, Finish []float64
	Makespan      float64
}

// predInfo is a precedence arc seen from the consumer side, carrying
// the communication-time distribution between the assigned processors.
type predInfo struct {
	pred dag.Task
	comm stochastic.Dist // Dirac(0) for co-located tasks
	mean float64
	min  float64
	max  float64
}

// Simulator holds one schedule's eager execution: the disjunctive
// topological order, each task's processor predecessor, and the
// per-task and per-arc duration distributions. It computes the
// deterministic timings (every duration at its minimum, mean or
// maximum), and Compile builds from it the RealizationKernel that
// draws the paper's 100 000-realization ground-truth distributions.
type Simulator struct {
	scen     *platform.Scenario
	sched    *Schedule
	order    []dag.Task
	prevProc []dag.Task
	dur      []stochastic.Dist
	durMean  []float64
	durMin   []float64
	durMax   []float64
	preds    [][]predInfo

	// The deterministic timings are immutable per simulator, so they
	// are computed once on first use instead of allocating fresh
	// start/finish vectors on every call.
	minOnce, meanOnce, maxOnce sync.Once
	minTiming                  Timing
	meanTiming                 Timing
	maxTiming                  Timing
}

// NewSimulator validates the scenario's uncertainty levels
// (platform.Scenario.CheckLevels) and the schedule against the
// scenario's graph, and precomputes the realization machinery.
// Validation and the disjunctive topological order come from the
// compiled CSR builder — one O(n+e) pass that reproduces the map-based
// Disjunctive(g).TopoOrder() order bit-for-bit, so the realization
// streams (which draw in order) are unchanged.
func NewSimulator(scen *platform.Scenario, s *Schedule) (*Simulator, error) {
	if err := scen.CheckLevels(); err != nil {
		return nil, err
	}
	d, err := s.CompileDisjunctive(scen.G.SortedCSR())
	if err != nil {
		return nil, err
	}
	order := d.Order
	n := scen.G.N()
	sim := &Simulator{
		scen:     scen,
		sched:    s,
		order:    order,
		prevProc: s.PrevOnProc(),
		dur:      make([]stochastic.Dist, n),
		durMean:  make([]float64, n),
		durMin:   make([]float64, n),
		durMax:   make([]float64, n),
		preds:    make([][]predInfo, n),
	}
	for t := 0; t < n; t++ {
		task := dag.Task(t)
		d := scen.TaskDist(task, s.Proc[t])
		sim.dur[t] = d
		sim.durMean[t] = d.Mean()
		sim.durMin[t], sim.durMax[t] = d.Support()
		for _, p := range scen.G.Pred(task) {
			cd := scen.CommDist(p, task, s.Proc[p], s.Proc[t])
			min, max := cd.Support()
			sim.preds[t] = append(sim.preds[t], predInfo{
				pred: p, comm: cd, mean: cd.Mean(), min: min, max: max,
			})
		}
	}
	return sim, nil
}

// Schedule returns the schedule being simulated.
func (sim *Simulator) Schedule() *Schedule { return sim.sched }

// Scenario returns the underlying scenario.
func (sim *Simulator) Scenario() *platform.Scenario { return sim.scen }

// durationKind selects which value each duration takes during a
// timing pass.
type durationKind int

const (
	durMin durationKind = iota
	durMean
	durMax
)

// timing runs the eager execution once with every duration and arc at
// the value kind selects.
func (sim *Simulator) timing(kind durationKind) Timing {
	n := len(sim.dur)
	start := make([]float64, n)
	finish := make([]float64, n)
	var makespan float64
	for _, t := range sim.order {
		st := 0.0
		if p := sim.prevProc[t]; p >= 0 {
			st = finish[p]
		}
		for i := range sim.preds[t] {
			pi := &sim.preds[t][i]
			c := pi.min
			switch kind {
			case durMean:
				c = pi.mean
			case durMax:
				c = pi.max
			}
			if arr := finish[pi.pred] + c; arr > st {
				st = arr
			}
		}
		d := sim.durMin[t]
		switch kind {
		case durMean:
			d = sim.durMean[t]
		case durMax:
			d = sim.durMax[t]
		}
		start[t] = st
		finish[t] = st + d
		if finish[t] > makespan {
			makespan = finish[t]
		}
	}
	return Timing{Start: start, Finish: finish, Makespan: makespan}
}

// MinTiming executes the schedule with every duration at its minimum
// (the deterministic base case). The timing is computed once and
// cached; treat the returned vectors as read-only.
func (sim *Simulator) MinTiming() Timing {
	sim.minOnce.Do(func() { sim.minTiming = sim.timing(durMin) })
	return sim.minTiming
}

// MeanTiming executes the schedule with every duration at its mean;
// this is the approximation the paper uses for the slack metrics. The
// timing is computed once and cached; treat the returned vectors as
// read-only.
func (sim *Simulator) MeanTiming() Timing {
	sim.meanOnce.Do(func() { sim.meanTiming = sim.timing(durMean) })
	return sim.meanTiming
}

// MaxTiming executes the schedule with every duration at the top of
// its support: the worst-case makespan, and the upper bound of every
// realization (the makespan is monotone in the durations). The timing
// is computed once and cached; treat the returned vectors as
// read-only.
func (sim *Simulator) MaxTiming() Timing {
	sim.maxOnce.Do(func() { sim.maxTiming = sim.timing(durMax) })
	return sim.maxTiming
}
