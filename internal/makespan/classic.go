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
// distribution once per case. The equivalence harnesses pin Classic's
// and Dodin's densities by frozen digests.
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
func EvaluateClassic(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	m, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	return m.Classic(), nil
}

// MonteCarlo draws count realizations of the schedule and returns the
// empirical makespan distribution (the paper's ground truth with
// count = 100 000). It runs the compiled batch kernel in exact mode,
// which draws every variate with its distribution's own Sample; use
// MonteCarloWith to select the faster table samplers.
func MonteCarlo(scen *platform.Scenario, s *schedule.Schedule, count int, seed int64) (*stochastic.Empirical, error) {
	return MonteCarloWith(scen, s, count, seed, MCOptions{})
}
