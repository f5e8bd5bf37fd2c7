// Package makespan evaluates the makespan distribution of an eager
// schedule by two of the methods discussed in §II/§V of the paper: the
// classical algorithm (numeric densities under the independence
// assumption — the method the paper's results were produced with) and
// Spelde's central-limit approximation (realized with Clark's moment
// formulas for the maximum of normals). The paper's third method,
// Dodin's series-parallel reduction, is not kept: against Monte-Carlo
// truth it never beat Classic by more than the sampling band on any
// family, size, UL or schedule probed, and it was exact only on
// one-task-per-processor series-parallel schedules, which no figure
// runs. The Monte-Carlo ground truth is the schedule package's
// RealizationKernel, which MonteCarloWith runs on a scenario and
// schedule.
//
// Evaluation is compiled: EvalCache/EvalModel hold everything shared
// per scenario and per schedule, so the paper's core experiment —
// hundreds of metric vectors per case — builds the disjunctive
// structure once per schedule and discretizes each distinct
// distribution once per case. The equivalence harnesses pin Classic's
// densities by frozen digests.
package makespan

import (
	"fmt"

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
	// Spelde reduces every random variable to (µ, σ) and propagates
	// moments only (normal algebra, Clark's max).
	Spelde
)

func (m Method) String() string {
	switch m {
	case Classic:
		return "classic"
	case Spelde:
		return "spelde"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Evaluate computes the makespan distribution of schedule s under
// scenario scen with the chosen method: the model's Classic density,
// or for Spelde the normal law of its moments (the CLT justification of
// the method; a point when σ = 0). gridSize <= 0 selects the paper's
// 64-point densities. One-shot entry: callers evaluating many schedules
// of one scenario should build an EvalCache once and request a Model
// per schedule, which amortizes the per-case tables.
func Evaluate(scen *platform.Scenario, s *schedule.Schedule, m Method, gridSize int) (*stochastic.Numeric, error) {
	if m < Classic || m > Spelde {
		return nil, fmt.Errorf("makespan: unknown method %v", m)
	}
	model, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	if m == Classic {
		return model.Classic(), nil
	}
	sp := model.Spelde()
	if sp.Std <= 0 {
		return stochastic.NewPoint(sp.Mean), nil
	}
	return stochastic.FromDist(stochastic.Normal{Mu: sp.Mean, Sigma: sp.Std}, gridSize), nil
}
