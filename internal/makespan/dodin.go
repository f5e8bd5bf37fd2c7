package makespan

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// ReductionError is the typed failure of a series-parallel reduction:
// the graph could not be contracted to a single node, either because
// cone duplication exhausted the node budget or because no reduction or
// duplication applies (stuck).
type ReductionError struct {
	Live   int  // live nodes remaining
	Total  int  // total nodes ever created
	Budget int  // node budget in force
	Stuck  bool // no duplication candidate existed
}

func (e *ReductionError) Error() string {
	if e.Stuck {
		return fmt.Sprintf("makespan: series-parallel reduction stuck with %d nodes", e.Live)
	}
	return fmt.Sprintf("makespan: series-parallel reduction exceeded node budget (%d live, %d total, budget %d)",
		e.Live, e.Total, e.Budget)
}

// IsReductionError reports whether err is a series-parallel
// ReductionError, as opposed to a structural error such as an invalid
// schedule.
func IsReductionError(err error) bool {
	var re *ReductionError
	return errors.As(err, &re)
}

// EvaluateDodin evaluates the makespan distribution by Dodin's method
// through the compiled evaluation model (EvalModel.Dodin): the
// disjunctive graph is reduced by series convolutions and parallel
// maxima, and non-series-parallel remainders are unlocked by
// duplicating shared predecessors. A reduction that cannot finish
// returns its *ReductionError; an invalid schedule returns a structural
// error. One-shot convenience: callers evaluating many schedules of one
// scenario should hold an EvalCache and call Model(s).Dodin() directly.
func EvaluateDodin(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	m, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	return m.Dodin()
}
