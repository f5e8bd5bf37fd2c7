package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/seeds"
	"repro/internal/stats"
	"repro/internal/stochastic"
)

// distCDF adapts an analytic distribution to the stats.CDF interface.
type distCDF struct{ d stochastic.Dist }

func (a distCDF) CDFAt(x float64) float64 { return a.d.CDF(x) }

// Fig1Row is one point of Fig. 1: the average KS and CM distances
// between the classical (independence-assumption) makespan CDF and the
// Monte-Carlo CDF for random graphs of a given size.
type Fig1Row struct {
	N  int     `json:"n"`
	KS float64 `json:"ks"`
	CM float64 `json:"cm"`
}

// Fig1 reproduces Fig. 1 ("average precision with the independence
// assumption", UL = 1.1): for each graph size, several random
// schedules of random graphs are evaluated both analytically and by
// Monte Carlo, and the CDF distances are averaged.
func Fig1(cfg Config, sizes []int, schedulesPerSize int) ([]Fig1Row, error) {
	rows, _, err := fig1(cfg, sizes, schedulesPerSize)
	return rows, err
}

// fig1 is Fig1 that also reports how many of its Classic evaluations
// ran beside the Monte-Carlo truth (classicAndTruth).
func fig1(cfg Config, sizes []int, schedulesPerSize int) ([]Fig1Row, int, error) {
	acc, mode, err := cfg.validate()
	if err != nil {
		return nil, 0, err
	}
	mcOpts := makespan.MCOptions{Sampler: mode, BlockSize: cfg.MCBlockSize}
	if len(sizes) == 0 {
		sizes = []int{10, 30, 100}
	}
	if schedulesPerSize <= 0 {
		schedulesPerSize = 5
	}
	procsFor := func(n int) int {
		switch {
		case n <= 10:
			return 3
		case n <= 30:
			return 8
		default:
			return 16
		}
	}
	var rows []Fig1Row
	beside := 0
	for _, n := range sizes {
		// Every seed is derived from the size's identity, not its slice
		// position: reordering `sizes` cannot change any row, and the
		// per-schedule Monte-Carlo streams can never collide with
		// another size's scenario or schedule streams (the additive
		// spec.Seed+k scheme could).
		spec := CaseSpec{
			Name: fmt.Sprintf("fig1-n%d", n), Family: RandomFamily,
			N: n, M: procsFor(n), UL: 1.1,
			Seed: seeds.Derive(cfg.Seed, fmt.Sprintf("fig1/n%d", n)),
		}
		scen, err := spec.BuildScenario()
		if err != nil {
			return nil, 0, err
		}
		cache := makespan.NewEvalCacheAccuracy(scen, acc)
		rng := rand.New(rand.NewSource(seeds.Derive(spec.Seed, "fig1-schedules")))
		mcSeeds := seeds.NewFamily(spec.Seed, "fig1-mc")
		var ksSum, cmSum float64
		for k := 0; k < schedulesPerSize; k++ {
			s := heuristics.RandomSchedule(scen, rng)
			model, err := cache.Model(s)
			if err != nil {
				return nil, 0, err
			}
			rv, emp, helped, err := classicAndTruth(model, scen, s, cfg.MCRealizations, mcSeeds.Seed(k), mcOpts)
			if err != nil {
				return nil, 0, err
			}
			if helped {
				beside++
			}
			ksSum += stats.KSAgainstEmpirical(rv, emp)
			lo, hi := stats.SupportUnion(rv, emp)
			cmSum += stats.CMArea(rv, emp, lo, hi, 1024)
		}
		rows = append(rows, Fig1Row{
			N:  scen.G.N(),
			KS: ksSum / float64(schedulesPerSize),
			CM: cmSum / float64(schedulesPerSize),
		})
	}
	return rows, beside, nil
}

// classicAndTruth returns the classical makespan density of model, the
// evaluation of schedule s, and count Monte-Carlo realizations of s,
// the truth Figs. 1–2 measure the density against. Classic runs on a
// runner.Team helper while the kernel draws on the caller, so the two
// share the processors instead of taking turns; with no idle processor
// (GOMAXPROCS 1, or a pool job while every worker holds one) Classic
// runs on the caller after the draw. Neither result depends on where it
// ran. It reports whether the helper started.
//
// The kernel stays on the caller so that its blocks can spread onto the
// helper's processor once Classic returns. On the helper, inside a pool
// job with one idle processor, it would run alone while the caller,
// still counted by the pool, waited for it.
func classicAndTruth(model *makespan.EvalModel, scen *platform.Scenario, s *schedule.Schedule, count int, seed int64, opt makespan.MCOptions) (*stochastic.Numeric, *stochastic.Empirical, bool, error) {
	var rv *stochastic.Numeric
	classic := func() { rv = model.Classic() }
	team := runner.NewTeam(2)
	helped := team.Grow(classic)
	emp, err := makespan.MonteCarloWith(scen, s, count, seed, opt)
	if !helped {
		classic()
	}
	team.Wait()
	return rv, emp, helped, err
}

// Fig2Result carries the two density curves of Fig. 2: the calculated
// makespan distribution against the Monte-Carlo histogram, with the
// achieved KS and CM distances.
type Fig2Result struct {
	X          []float64 `json:"x"`
	Calculated []float64 `json:"calculated"`
	Empirical  []float64 `json:"empirical"`
	KS         float64   `json:"ks"`
	CM         float64   `json:"cm"`
}

// Fig2 reproduces Fig. 2 (visual comparison of the calculated and
// experimental distributions on a large case). The paper shows a
// ~100-task graph where KS ≈ 0.17 yet the curves nearly coincide.
func Fig2(cfg Config) (*Fig2Result, error) {
	res, _, err := fig2(cfg)
	return res, err
}

// fig2 is Fig2 that also reports whether its Classic evaluation ran
// beside the Monte-Carlo truth (classicAndTruth).
func fig2(cfg Config) (*Fig2Result, bool, error) {
	acc, mode, err := cfg.validate()
	if err != nil {
		return nil, false, err
	}
	mcOpts := makespan.MCOptions{Sampler: mode, BlockSize: cfg.MCBlockSize}
	spec := Fig5Case(cfg.Seed + 999)
	scen, err := spec.BuildScenario()
	if err != nil {
		return nil, false, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4242))
	s := heuristics.RandomSchedule(scen, rng)
	model, err := makespan.NewEvalCacheAccuracy(scen, acc).Model(s)
	if err != nil {
		return nil, false, err
	}
	rv, emp, helped, err := classicAndTruth(model, scen, s, cfg.MCRealizations, cfg.Seed+5, mcOpts)
	if err != nil {
		return nil, false, err
	}
	empRV := emp.ToNumeric(acc.GridSize)
	lo, hi := stats.SupportUnion(rv, emp)
	xs := numeric.Linspace(lo, hi, 256)
	res := &Fig2Result{
		X:          xs,
		Calculated: make([]float64, len(xs)),
		Empirical:  make([]float64, len(xs)),
		KS:         stats.KSAgainstEmpirical(rv, emp),
		CM:         stats.CMArea(rv, emp, lo, hi, 1024),
	}
	for i, x := range xs {
		res.Calculated[i] = rv.PDFAt(x)
		res.Empirical[i] = empRV.PDFAt(x)
	}
	return res, helped, nil
}

// Fig7Result carries the density curves of Fig. 7: the special
// concatenated-Beta distribution against the normal with identical
// mean and standard deviation.
type Fig7Result struct {
	X       []float64 `json:"x"`
	Special []float64 `json:"special"`
	Normal  []float64 `json:"normal"`
	Mean    float64   `json:"mean"`
	Std     float64   `json:"std"`
}

// Fig7 reproduces Fig. 7.
func Fig7(points int) *Fig7Result {
	if points <= 0 {
		points = 256
	}
	sp := stochastic.NewSpecial()
	n := sp.MatchedNormal()
	xs := numeric.Linspace(0, sp.Width, points)
	res := &Fig7Result{
		X:       xs,
		Special: make([]float64, points),
		Normal:  make([]float64, points),
		Mean:    sp.Mean(),
		Std:     stochastic.StdDev(sp),
	}
	for i, x := range xs {
		res.Special[i] = sp.PDF(x)
		res.Normal[i] = n.PDF(x)
	}
	return res
}

// Fig8Row is one point of Fig. 8: the KS and CM distance between the
// k-fold self-sum of the special distribution and the matched normal.
// CM is the paper's absolute-area variant (Fig. 1 units); because the
// support widens as the sums accumulate, the scale-free ω²
// (Cramér–von-Mises proper) is also reported and shows the steep CLT
// decay of the paper's log plot.
type Fig8Row struct {
	Sums       int     `json:"sums"` // number of summations (0 = the distribution itself)
	KS         float64 `json:"ks"`
	CM         float64 `json:"cm"`
	CvMSquared float64 `json:"cvm_squared"`
}

// Fig8 reproduces Fig. 8: convergence of repeated self-sums of the
// special distribution to normality (the CLT argument behind the
// metric equivalences). maxSums <= 0 selects the paper's 30.
func Fig8(maxSums int) []Fig8Row {
	if maxSums <= 0 {
		maxSums = 30
	}
	sp := stochastic.NewSpecial()
	base := stochastic.FromDist(sp, 128)
	cur := base.Clone()
	rows := make([]Fig8Row, 0, maxSums+1)
	for k := 0; k <= maxSums; k++ {
		match := stochastic.Normal{Mu: cur.Mean(), Sigma: cur.StdDev()}
		lo, hi := cur.Lo(), cur.Hi()
		rows = append(rows, Fig8Row{
			Sums:       k,
			KS:         stats.KS(cur, distCDF{match}, lo, hi, 1024),
			CM:         stats.CMArea(cur, distCDF{match}, lo, hi, 1024),
			CvMSquared: stats.CvMSquared(cur, distCDF{match}, lo, hi, 1024),
		})
		if k < maxSums {
			cur = cur.Add(base, 128)
		}
	}
	return rows
}

// Fig9Row summarizes one of the four join-graph schedules of Fig. 9.
type Fig9Row struct {
	Name     string  `json:"name"`
	Slack    float64 `json:"slack"`    // average slack S
	StdDev   float64 `json:"stddev"`   // σ_M (robustness)
	Makespan float64 `json:"makespan"` // E(M)
}

// Fig9 reproduces the Fig. 9 case study: a join graph of N+1 i.i.d.
// tasks scheduled four ways. The numbers demonstrate the paper's §VII
// argument: slack does not predict robustness — the wide (max of many
// i.i.d.) schedule is the most robust with no slack, while the
// imbalanced schedule has ample slack and poor robustness.
func Fig9(cfg Config, n int) ([]Fig9Row, error) {
	acc, _, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if n <= 2 {
		n = 8
	}
	g := graphgen.Join(n+1, 0)
	// Identical tasks: i.i.d. durations on every processor.
	etc := make([][]float64, n+1)
	for i := range etc {
		etc[i] = make([]float64, n)
		for j := range etc[i] {
			etc[i][j] = 10
		}
	}
	tau, lat := platform.NewUniformNetwork(n, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: n, ETC: etc, Tau: tau, Lat: lat},
		UL: 1.5,
	}
	sink := dag.Task(n)
	cache := makespan.NewEvalCacheAccuracy(scen, acc)

	build := func(name string, assign func(s *schedule.Schedule)) (Fig9Row, error) {
		s := schedule.New(n+1, n)
		assign(s)
		model, err := cache.Model(s)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("experiment: fig9 %s: %w", name, err)
		}
		m := model.Metrics(cfg.params())
		return Fig9Row{Name: name, Slack: m.AvgSlack, StdDev: m.StdDev, Makespan: m.Makespan}, nil
	}

	specs := []struct {
		name   string
		assign func(s *schedule.Schedule)
	}{
		{"wide (1 task/proc)", func(s *schedule.Schedule) {
			for i := 0; i < n; i++ {
				s.Assign(dag.Task(i), i)
			}
			s.Assign(sink, 0)
		}},
		{"chain (all on p0)", func(s *schedule.Schedule) {
			for i := 0; i < n; i++ {
				s.Assign(dag.Task(i), 0)
			}
			s.Assign(sink, 0)
		}},
		{"imbalanced (N-1 + 1)", func(s *schedule.Schedule) {
			for i := 0; i < n-1; i++ {
				s.Assign(dag.Task(i), 0)
			}
			s.Assign(dag.Task(n-1), 1)
			s.Assign(sink, 0)
		}},
		{"balanced (2 chains)", func(s *schedule.Schedule) {
			for i := 0; i < n/2; i++ {
				s.Assign(dag.Task(i), 0)
			}
			for i := n / 2; i < n; i++ {
				s.Assign(dag.Task(i), 1)
			}
			s.Assign(sink, 0)
		}},
	}
	rows := make([]Fig9Row, 0, len(specs))
	for _, sp := range specs {
		row, err := build(sp.name, sp.assign)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
