package makespan

import (
	"errors"
	"fmt"
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
