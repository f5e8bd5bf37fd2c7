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

// Classic's max step assumes its operands are independent. With one
// task per processor the disjunctive graph of an in-tree is the tree
// itself, the operands of every join are sums over disjoint subtrees,
// and Classic is exact up to its density grid. Against mcCount exact
// realizations the Dvoretzky–Kiefer–Wolfowitz inequality bounds the KS
// distance by ε = √(ln(2/α)/(2·mcCount)) except with probability α, so
// at α = 1e-6 the test cannot be flaky by construction. The grid is
// pinned at 256 points. At the 64-point reference the n = 31, UL = 1.5
// cell reads 0.0096 against Monte-Carlo seed 7, outside the band, but
// 0.0022 at 256 points: that is grid error.
func TestClassicExactOnInTrees(t *testing.T) {
	const (
		mcCount = 100_000
		alpha   = 1e-6
	)
	eps := math.Sqrt(math.Log(2/alpha) / (2 * mcCount))
	acc, err := stochastic.ParseEvalAccuracy("grid=256")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 15, 31} {
		for _, ul := range []float64{1.1, 1.5} {
			spec := experiment.CaseSpec{Name: "intree-exact", Family: experiment.InTreeFamily,
				N: n, M: n, UL: ul, Seed: 5}
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
			emp, err := makespan.MonteCarlo(scen, s, mcCount, 100)
			if err != nil {
				t.Fatal(err)
			}
			if ks := stats.KSAgainstEmpirical(model.Classic(), emp); ks > eps {
				t.Errorf("n=%d UL=%g: KS(Classic, Monte Carlo) = %.4f, above the DKW band %.4f", n, ul, ks, eps)
			}
		}
	}
}
