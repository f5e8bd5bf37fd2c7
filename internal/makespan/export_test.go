package makespan

import "repro/internal/stochastic"

// ClassicWorkers runs Classic with a worker cap of workers, caller
// included, instead of the width rule, and reports how many helpers
// started.
func (m *EvalModel) ClassicWorkers(workers int) (*stochastic.Numeric, int) {
	return m.classic(workers)
}
