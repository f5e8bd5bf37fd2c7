package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/seeds"
)

// CaseSpec defines one experimental case: a workload family (by its
// registered name) and target size, a platform size, and an
// uncertainty level.
type CaseSpec struct {
	Name   string
	Family string // registered workload family name (see FamilyNames)
	N      int    // requested task count (families round to their size grid)
	M      int    // processors
	UL     float64
	Seed   int64
}

// WithDerivedSeed returns a copy of the spec whose seed is derived
// deterministically from a base seed and the spec's identity (name
// and geometry). The derivation is independent of worker count and
// submission order, so ad-hoc sweeps stay reproducible without
// hand-numbering their cases.
func (c CaseSpec) WithDerivedSeed(base int64) CaseSpec {
	c.Seed = seeds.Derive(base,
		fmt.Sprintf("%s/%s/n%d/m%d/ul%g", c.Name, c.Family, c.N, c.M, c.UL))
	return c
}

// BuildScenario deterministically constructs the scenario of the case:
// graph, weights and platform all derive from the case seed. The
// workload family is resolved through the registry; a size the family
// grid cannot approximate within a factor of two is a *SizeError, not
// a silently clamped graph, and an uncertainty level outside
// [1, +Inf) is an error.
func (c CaseSpec) BuildScenario() (*platform.Scenario, error) {
	if err := platform.CheckUL(c.UL); err != nil {
		return nil, err
	}
	fam, err := FamilyByName(c.Family)
	if err != nil {
		return nil, err
	}
	size, err := fam.RoundSize(c.N)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	g, weights, err := fam.Generate(size, rng)
	if err != nil {
		return nil, err
	}
	if g != nil && g.N() != size {
		return nil, fmt.Errorf("experiment: family %q generated %d tasks for rounded size %d",
			c.Family, g.N(), size)
	}
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("experiment: case %q produced an empty graph", c.Name)
	}
	var etc [][]float64
	if weights != nil {
		etc = platform.GenerateETCFromWeights(weights, c.M, 0.5, rng)
	} else {
		etc = platform.GenerateETCUniform(g.N(), c.M, 10, 20, rng)
	}
	tau, lat := platform.NewUniformNetwork(c.M, 1, 0) // latency negligible per §V
	p := &platform.Platform{M: c.M, ETC: etc, Tau: tau, Lat: lat}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &platform.Scenario{G: g, P: p, UL: c.UL}, nil
}

// Fig3Case is the paper's Fig. 3: Cholesky, 10 tasks, 3 processors,
// UL = 1.01.
func Fig3Case(seed int64) CaseSpec {
	return CaseSpec{Name: "fig3-cholesky-10", Family: CholeskyFamily, N: 10, M: 3, UL: 1.01, Seed: seed}
}

// Fig4Case is the paper's Fig. 4: random graph, 30 tasks, 8
// processors, UL = 1.01.
func Fig4Case(seed int64) CaseSpec {
	return CaseSpec{Name: "fig4-random-30", Family: RandomFamily, N: 30, M: 8, UL: 1.01, Seed: seed}
}

// Fig5Case is the paper's Fig. 5: Gaussian elimination, ~103 tasks, 16
// processors, UL = 1.1.
func Fig5Case(seed int64) CaseSpec {
	return CaseSpec{Name: "fig5-gausselim-103", Family: GaussElimFamily, N: 103, M: 16, UL: 1.1, Seed: seed}
}

// Fig6Cases returns the 24 correlation cases aggregated in Fig. 6: the
// three graph families at sizes ≈{10, 30, 100} with UL ∈ {1.01, 1.1},
// plus additional random-graph instances (the paper generated up to 10
// random graphs per size), platform sizes following the figures
// (3 procs for ~10 tasks, 8 for ~30, 16 for ~100). It is the Fig. 6
// instance of the generalized Sweep grid.
func Fig6Cases(seed int64) []CaseSpec {
	cases, err := Sweep{
		NamePrefix: "fig6",
		Families:   []string{CholeskyFamily, GaussElimFamily, RandomFamily},
		Sizes:      []int{10, 30, 100},
		ULs:        []float64{1.01, 1.1},
		RepsFor:    map[string]int{RandomFamily: 2}, // second random instance
	}.Cases(seed)
	if err != nil {
		// The grid is static and covered by tests; reaching this is a
		// programming bug, not an input error.
		panic(err)
	}
	return cases
}
