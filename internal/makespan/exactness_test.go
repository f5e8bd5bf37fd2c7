package makespan_test

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/makespan"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/stochastic"
)

// Against exactMCCount exact realizations the Dvoretzky–Kiefer–Wolfowitz
// inequality bounds the KS distance of an exact evaluator by
// ε = √(ln(2/α)/(2·exactMCCount)) except with probability α = exactAlpha,
// so (ε ≈ 0.0085) these tests cannot be flaky by construction.
const (
	exactMCCount = 100_000
	exactAlpha   = 1e-6
)

// assertExact schedules one task per processor on family's graphs of
// n ∈ {7, 15, 31} tasks at UL ∈ {1.1, 1.5}, evaluates each with eval
// on a 256-point grid, and requires the result inside the DKW band of
// Monte-Carlo seed 100.
func assertExact(t *testing.T, family string, seeds []int64, eval func(*makespan.EvalModel) *stochastic.Numeric) {
	t.Helper()
	eps := math.Sqrt(math.Log(2/exactAlpha) / (2 * exactMCCount))
	acc, err := stochastic.ParseEvalAccuracy("grid=256")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 15, 31} {
		for _, ul := range []float64{1.1, 1.5} {
			for _, seed := range seeds {
				spec := experiment.CaseSpec{Name: family + "-exact", Family: family,
					N: n, M: n, UL: ul, Seed: seed}
				scen, err := spec.BuildScenario()
				if err != nil {
					t.Fatal(err)
				}
				s := schedule.New(n, n)
				for task := 0; task < n; task++ {
					s.Assign(dag.Task(task), task)
				}
				model, err := makespan.NewEvalCacheAccuracy(scen, acc).Model(s)
				if err != nil {
					t.Fatal(err)
				}
				rv := eval(model)
				emp, err := makespan.MonteCarloWith(scen, s, exactMCCount, 100, makespan.MCOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if ks := stats.KSAgainstEmpirical(rv, emp); ks > eps {
					t.Errorf("n=%d UL=%g seed %d: KS against Monte Carlo = %.4f, above the DKW band %.4f", n, ul, seed, ks, eps)
				}
			}
		}
	}
}

// Classic's max step assumes its operands are independent. With one
// task per processor the disjunctive graph of an in-tree is the tree
// itself, the operands of every join are sums over disjoint subtrees,
// and Classic is exact up to its density grid. The grid is pinned at
// 256 points. At the 64-point reference the n = 31, UL = 1.5 cell
// reads 0.0096 against Monte-Carlo seed 7, outside the band, but
// 0.0022 at 256 points: that is grid error.
func TestClassicExactOnInTrees(t *testing.T) {
	assertExact(t, experiment.InTreeFamily, []int64{5}, (*makespan.EvalModel).Classic)
}
