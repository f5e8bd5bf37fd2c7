// Package makespan evaluates the makespan distribution of an eager
// schedule, implementing the three methods discussed in §II/§V of the
// paper: the classical algorithm (numeric densities under the
// independence assumption — the method the paper's results were
// produced with), Dodin's series-parallel reduction, and Spelde's
// central-limit approximation (realized with Clark's moment formulas
// for the maximum of normals). The Monte-Carlo ground truth lives in
// the schedule package; this package wraps it for convenience.
//
// Evaluation is compiled: EvalCache/EvalModel hold everything shared
// per scenario and per schedule, so the paper's core experiment —
// hundreds of metric vectors per case — builds the disjunctive
// structure once per schedule and discretizes each distinct
// distribution once per case. ReferenceEvaluateClassic and
// ReferenceEvaluateDodin retain the uncompiled classical and Dodin
// evaluators: the equivalence harnesses hold EvalModel.Classic
// bit-identical to the first and EvalModel.Dodin within tolerance of
// the second, and CI's ratio guards time both against their compiled
// paths.
package makespan

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// Method selects a makespan-distribution evaluation algorithm.
type Method int

const (
	// Classic propagates numeric densities through the disjunctive
	// graph, convolving along series arcs and multiplying CDFs at
	// joins, assuming every intermediate distribution independent.
	Classic Method = iota
	// Dodin reduces the expanded RV graph by series/parallel rules,
	// duplicating shared sub-structures when the graph is not
	// series-parallel.
	Dodin
	// Spelde reduces every random variable to (µ, σ) and propagates
	// moments only (normal algebra, Clark's max).
	Spelde
)

func (m Method) String() string {
	switch m {
	case Classic:
		return "classic"
	case Dodin:
		return "dodin"
	case Spelde:
		return "spelde"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// evalContext precomputes what the reference evaluators share: the
// disjunctive topological order and per-arc communication
// distributions.
type evalContext struct {
	scen  *platform.Scenario
	sched *schedule.Schedule
	dg    *dag.Graph
	order []dag.Task
}

func newEvalContext(scen *platform.Scenario, s *schedule.Schedule) (*evalContext, error) {
	if err := s.Validate(scen.G); err != nil {
		return nil, err
	}
	dg, err := s.Disjunctive(scen.G)
	if err != nil {
		return nil, err
	}
	order, err := dg.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &evalContext{scen: scen, sched: s, dg: dg, order: order}, nil
}

// commDist returns the communication distribution of disjunctive arc
// p→t and whether the arc drops out of the evaluation. The skip
// decision is zeroCommArc — the one place the rule lives — which
// replaced the historical minComm > 0 guard (and its duplicate inside
// the RV constructor) that silently dropped stochastic zero-minimum
// links.
func (c *evalContext) commDist(p, t dag.Task) (stochastic.Dist, bool) {
	d := c.scen.CommDist(p, t, c.sched.Proc[p], c.sched.Proc[t])
	return d, zeroCommArc(d)
}

// durRV returns the numeric duration variable of task t on its
// assigned processor.
func (c *evalContext) durRV(t dag.Task, gridSize int) *stochastic.Numeric {
	return stochastic.FromDist(c.scen.TaskDist(t, c.sched.Proc[t]), gridSize)
}

// Evaluate computes the makespan distribution of schedule s under
// scenario scen with the chosen method. gridSize <= 0 selects the
// paper's 64-point densities.
func Evaluate(scen *platform.Scenario, s *schedule.Schedule, m Method, gridSize int) (*stochastic.Numeric, error) {
	switch m {
	case Classic:
		return EvaluateClassic(scen, s, gridSize)
	case Dodin:
		return EvaluateDodin(scen, s, gridSize)
	case Spelde:
		res, err := EvaluateSpelde(scen, s)
		if err != nil {
			return nil, err
		}
		return res.RV(gridSize), nil
	default:
		return nil, fmt.Errorf("makespan: unknown method %v", m)
	}
}

// EvaluateClassic runs the classical algorithm through the compiled
// evaluation model. One-shot convenience: callers evaluating many
// schedules of one scenario should build an EvalCache once and request
// a Model per schedule, which amortizes the per-case tables.
// Bit-identical to ReferenceEvaluateClassic.
func EvaluateClassic(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	m, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	return m.Classic(), nil
}

// ReferenceEvaluateClassic is the retained uncompiled classical
// algorithm: in disjunctive topological order, each task's completion
// distribution is the maximum (CDF product) over its predecessors'
// completion-plus-communication distributions (convolutions), plus its
// own duration. All intermediate variables are treated as independent —
// exact for in-trees, an approximation otherwise (§II). It validates
// and clones the disjunctive graph and discretizes every distribution
// per call; the equivalence harness holds EvalModel.Classic
// bit-identical to it.
func ReferenceEvaluateClassic(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	ctx, err := newEvalContext(scen, s)
	if err != nil {
		return nil, err
	}
	if gridSize <= 0 {
		gridSize = stochastic.DefaultGridSize
	}
	n := scen.G.N()
	completion := make([]*stochastic.Numeric, n)
	for _, t := range ctx.order {
		start := stochastic.NewPoint(0)
		for _, p := range ctx.dg.Pred(t) {
			arrival := completion[p]
			if d, skip := ctx.commDist(p, t); !skip {
				arrival = arrival.Add(stochastic.FromDist(d, gridSize), gridSize)
			}
			start = start.MaxWith(arrival, gridSize)
		}
		completion[t] = start.Add(ctx.durRV(t, gridSize), gridSize)
	}
	makespan := stochastic.NewPoint(0)
	for _, t := range ctx.dg.Sinks() {
		makespan = makespan.MaxWith(completion[t], gridSize)
	}
	return makespan, nil
}

// MonteCarlo draws count realizations of the schedule and returns the
// empirical makespan distribution (the paper's ground truth with
// count = 100 000). It runs the compiled batch kernel in exact mode,
// which draws every variate with its distribution's own Sample; use
// MonteCarloWith to select the faster table samplers.
func MonteCarlo(scen *platform.Scenario, s *schedule.Schedule, count int, seed int64) (*stochastic.Empirical, error) {
	return MonteCarloWith(scen, s, count, seed, MCOptions{})
}
