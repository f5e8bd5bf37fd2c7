package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/runner"
	"repro/internal/stochastic"
)

// VariableULResult is the outcome of the §VIII future-work experiment:
// how the makespan↔σ_M correlation and the mean-based heuristics
// behave once the uncertainty level varies per task (breaking the
// proportionality between duration means and standard deviations), and
// whether the σ-aware SDHEFT heuristic helps.
type VariableULResult struct {
	ConstCorr float64 `json:"const_corr"` // Pearson(E(M), σ_M) with constant UL
	VarCorr   float64 `json:"var_corr"`   // Pearson(E(M), σ_M) with per-task UL in [ULLo, ULHi]
	ULLo      float64 `json:"ul_lo"`
	ULHi      float64 `json:"ul_hi"`

	// Heuristic comparison under the variable-UL scenario.
	HEFTMakespan   float64 `json:"heft_makespan"`
	HEFTStd        float64 `json:"heft_std"`
	SDHEFTMakespan float64 `json:"sdheft_makespan"`
	SDHEFTStd      float64 `json:"sdheft_std"`
	Lambda         float64 `json:"lambda"`

	// Sweep reports SDHEFT across a λ ladder (λ = 0 is HEFT's cost
	// model) so the makespan/robustness trade-off is visible.
	Sweep []SDHEFTPoint `json:"sweep"`

	// Noisy-processor study: half the machines are stable
	// (UL = 1.02), half noisy (UL = 2.0), with per-task means
	// equalized so a mean-based heuristic cannot tell them apart.
	NoisyHEFTMakespan   float64 `json:"noisy_heft_makespan"`
	NoisyHEFTStd        float64 `json:"noisy_heft_std"`
	NoisySDHEFTMakespan float64 `json:"noisy_sdheft_makespan"`
	NoisySDHEFTStd      float64 `json:"noisy_sdheft_std"`
}

// SDHEFTPoint is one λ of the SDHEFT sweep.
type SDHEFTPoint struct {
	Lambda   float64 `json:"lambda"`
	Makespan float64 `json:"makespan"`
	Std      float64 `json:"std"`
	Differs  bool    `json:"differs"` // schedule differs from HEFT's
}

// variableULLambda is SDHEFT's weight in the variable-UL study.
const variableULLambda = 2

// VariableUL runs the paper's §VIII conjecture: with a constant UL the
// makespan is a decent robustness proxy because every σ is
// proportional to its mean; with a variable per-task UL that
// equivalence breaks, the makespan↔σ correlation drops, and a
// σ-aware heuristic (SDHEFT, at λ = variableULLambda) can buy
// robustness that HEFT cannot see. Both correlations come from the
// correlation cases' evaluation loop, on a private pool of
// cfg.Workers workers.
func VariableUL(cfg Config) (*VariableULResult, error) {
	acc, _, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	spec := Fig4Case(cfg.Seed + 17)
	base, err := spec.BuildScenario()
	if err != nil {
		return nil, err
	}
	base.UL = 1.1
	res := &VariableULResult{ULLo: 1.0, ULHi: 1.8, Lambda: variableULLambda}
	pool := runner.NewPool(cfg.Workers)
	defer pool.Close()
	// corr returns Pearson(E(M), σ_M) over nSched random schedules
	// drawn from seed: the case matrix's (makespan, stddev) entry,
	// which InvertedColumns leaves uninverted.
	nSched := cfg.schedulesFor(base.G.N())
	corr := func(cache *makespan.EvalCache, seed int64) (float64, error) {
		scheds := heuristics.RandomSchedules(cache.Scenario(), nSched, rand.New(rand.NewSource(seed)))
		cr, err := runCase(context.TODO(), spec, cache, scheds, cfg, pool)
		if err != nil {
			return 0, err
		}
		return cr.Corr[0][1], nil
	}
	if res.ConstCorr, err = corr(makespan.NewEvalCacheAccuracy(base, acc), cfg.Seed+1); err != nil {
		return nil, err
	}
	varScen, err := base.WithVariableUL(res.ULLo, res.ULHi, rand.New(rand.NewSource(cfg.Seed+2)))
	if err != nil {
		return nil, err
	}
	varCache := makespan.NewEvalCacheAccuracy(varScen, acc)
	if res.VarCorr, err = corr(varCache, cfg.Seed+3); err != nil {
		return nil, err
	}

	hr, err := heuristics.HEFT(varScen)
	if err != nil {
		return nil, err
	}
	hm, err := evaluateOne(varCache, hr.Schedule, cfg)
	if err != nil {
		return nil, err
	}
	sr, err := heuristics.SDHEFT(varScen, variableULLambda)
	if err != nil {
		return nil, err
	}
	sm, err := evaluateOne(varCache, sr.Schedule, cfg)
	if err != nil {
		return nil, err
	}
	res.HEFTMakespan, res.HEFTStd = hm.Makespan, hm.StdDev
	res.SDHEFTMakespan, res.SDHEFTStd = sm.Makespan, sm.StdDev

	for _, l := range []float64{0, 0.5, 1, 2, 4, 8} {
		pr, err := heuristics.SDHEFT(varScen, l)
		if err != nil {
			return nil, err
		}
		pm, err := evaluateOne(varCache, pr.Schedule, cfg)
		if err != nil {
			return nil, err
		}
		differs := false
		for i := range pr.Schedule.Proc {
			if pr.Schedule.Proc[i] != hr.Schedule.Proc[i] {
				differs = true
				break
			}
		}
		res.Sweep = append(res.Sweep, SDHEFTPoint{
			Lambda: l, Makespan: pm.Makespan, Std: pm.StdDev, Differs: differs,
		})
	}

	// Noisy-processor study (mean-equalized stable vs noisy machines).
	noisy, err := base.WithNoisyProcessors(1.02, 2.0)
	if err != nil {
		return nil, err
	}
	noisyCache := makespan.NewEvalCacheAccuracy(noisy, acc)
	nh, err := heuristics.HEFT(noisy)
	if err != nil {
		return nil, err
	}
	nhm, err := evaluateOne(noisyCache, nh.Schedule, cfg)
	if err != nil {
		return nil, err
	}
	ns, err := heuristics.SDHEFT(noisy, variableULLambda)
	if err != nil {
		return nil, err
	}
	nsm, err := evaluateOne(noisyCache, ns.Schedule, cfg)
	if err != nil {
		return nil, err
	}
	res.NoisyHEFTMakespan, res.NoisyHEFTStd = nhm.Makespan, nhm.StdDev
	res.NoisySDHEFTMakespan, res.NoisySDHEFTStd = nsm.Makespan, nsm.StdDev
	return res, nil
}

// OscillatingDurationsCase reruns one correlation case with the
// paper's "non-standard probability distributions (with some
// oscillations)" future-work item: durations follow a shifted
// concatenated-Beta mixture instead of Beta(2,5). It runs through the
// correlation cases' evaluation loop, on a private pool of cfg.Workers
// workers, so callers get the Pearson matrix over the random schedules
// (to verify the metric equivalences survive the distribution swap)
// and the heuristic rows of Figs. 3–5.
func OscillatingDurationsCase(cfg Config) (*CaseResult, error) {
	acc, _, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	spec := Fig3Case(cfg.Seed + 23)
	spec.Name = "oscillating-" + spec.Name
	spec.UL = 1.2 // widen the interval so the lobes are visible
	scen, err := spec.BuildScenario()
	if err != nil {
		return nil, err
	}
	scen.UL = spec.UL
	scen.DurFn = func(min, ul float64) stochastic.Dist {
		return stochastic.Shifted{
			D:   stochastic.NewSpecialWith(min*(ul-1), []float64{0.5, 0.3, 0.2}),
			Off: min,
		}
	}
	pool := runner.NewPool(cfg.Workers)
	defer pool.Close()
	return runCase(context.TODO(), spec, makespan.NewEvalCacheAccuracy(scen, acc), caseSchedules(spec, scen, cfg), cfg, pool)
}

// WriteVariableUL renders the variable-UL report.
func WriteVariableUL(w io.Writer, res *VariableULResult) {
	fmt.Fprintln(w, "# §VIII future work — variable uncertainty levels")
	fmt.Fprintf(w, "Pearson(E(M), sigma_M) with constant UL=1.1:        %+.4f\n", res.ConstCorr)
	fmt.Fprintf(w, "Pearson(E(M), sigma_M) with per-task UL in [%g,%g]: %+.4f\n", res.ULLo, res.ULHi, res.VarCorr)
	fmt.Fprintln(w, "\nheuristics under variable UL:")
	fmt.Fprintf(w, "  HEFT   E(M)=%.4g  sigma_M=%.4g\n", res.HEFTMakespan, res.HEFTStd)
	fmt.Fprintf(w, "  SDHEFT E(M)=%.4g  sigma_M=%.4g  (lambda=%g)\n", res.SDHEFTMakespan, res.SDHEFTStd, res.Lambda)
	fmt.Fprintln(w, "\nSDHEFT lambda sweep (lambda=0 ~ HEFT cost model):")
	fmt.Fprintf(w, "  %8s %12s %12s %10s\n", "lambda", "E(M)", "sigma_M", "differs")
	for _, p := range res.Sweep {
		fmt.Fprintf(w, "  %8g %12.5g %12.5g %10v\n", p.Lambda, p.Makespan, p.Std, p.Differs)
	}
	fmt.Fprintln(w, "\nnoisy-processor study (half stable UL=1.02, half noisy UL=2.0, means equalized):")
	fmt.Fprintf(w, "  HEFT   E(M)=%.5g  sigma_M=%.5g   (mean-based: blind to the noise)\n",
		res.NoisyHEFTMakespan, res.NoisyHEFTStd)
	fmt.Fprintf(w, "  SDHEFT E(M)=%.5g  sigma_M=%.5g   (prefers stable machines)\n",
		res.NoisySDHEFTMakespan, res.NoisySDHEFTStd)
}
