package heuristics

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/stochastic"
)

// SDHEFT is the robustness-aware list heuristic the paper proposes as
// future work (§VIII): "an efficient heuristic similar to classic list
// heuristics based on the standard deviation of every task duration
// rather than their mean or minimal value". It is HEFT on a cost model
// whose statistic is the pessimistic estimate mean + lambda·σ of each
// duration's distribution, so the upward ranks and the finish-time
// objective both favour placing high-variance tasks where their
// dispersion hurts least.
//
// With a constant uncertainty level σ is proportional to the mean and
// SDHEFT reduces to HEFT (the equivalence the paper's §VII explains);
// under variable per-task UL the two diverge and SDHEFT trades a
// little expected makespan for lower makespan variance.
//
// lambda must pass CheckLambda; any other value is an error.
//
// Compiled implementation, bit-identical to ReferenceSDHEFT.
func SDHEFT(scen *platform.Scenario, lambda float64) (Result, error) {
	if err := CheckLambda(lambda); err != nil {
		return Result{}, err
	}
	pess := func(d stochastic.Dist) float64 {
		return d.Mean() + lambda*math.Sqrt(d.Variance())
	}
	cm, err := newCostModel(scen, pess, func(min float64) float64 { return pess(scen.DurationAt(min)) })
	if err != nil {
		return Result{}, err
	}
	return listSchedule(cm), nil
}

// CheckLambda rejects an SDHEFT weight that is not finite and >= 0: a
// NaN or infinite weight makes the costs NaN or infinite, and a
// negative one rewards variance.
func CheckLambda(lambda float64) error {
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return fmt.Errorf("heuristics: SDHEFT lambda %v: want a finite value >= 0", lambda)
	}
	return nil
}
