package makespan

import "repro/internal/stochastic"

// ClassicWorkers runs Classic with a worker cap of workers, caller
// included, instead of the width rule, and reports how many helpers
// started.
func (m *EvalModel) ClassicWorkers(workers int) (*stochastic.Numeric, int) {
	return m.classic(workers)
}

// ClarkMax and ZeroCommArc let the Spelde oracle share the moment
// formulas and the arc-skip rule with the evaluators.
var (
	ClarkMax    = clarkMax
	ZeroCommArc = zeroCommArc
)
