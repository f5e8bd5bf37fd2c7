// Package experiment reproduces the evaluation of the paper: the 52
// experimental cases of §V (scaled-down defaults, paper-scale behind
// Full), the correlation matrices of Figs. 3–6, the accuracy studies of
// Figs. 1–2, the central-limit studies of Figs. 7–8, and the slack
// case study of Fig. 9.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/robustness"
	"repro/internal/stochastic"
)

// Config controls the scale of every driver. The zero value is not
// usable; call DefaultConfig or PaperConfig.
type Config struct {
	Schedules      int     // random schedules per case (paper: 10000, 2000 for n=100)
	MCRealizations int     // Monte-Carlo realizations (paper: 100000)
	Workers        int     // worker-pool size; <= 0 selects GOMAXPROCS
	Seed           int64   // base RNG seed
	Delta          float64 // absolute probabilistic half-width (paper: 0.1)
	Gamma          float64 // relative probabilistic factor (paper: 1.0003)

	// MCSampler selects the Monte-Carlo realization samplers: "exact"
	// (or empty) for the bit-stable reference stream, "table" for the
	// inverse-CDF Beta tables — several times faster, distributions
	// identical within 1/stochastic.BetaTableSize in Kolmogorov
	// distance.
	MCSampler string
	// MCBlockSize is the realizations-per-batch granularity of the
	// kernel (schedule.DefaultBlockSize when <= 0). Each block owns
	// one RNG stream, so changing it changes the drawn realizations
	// (never their distribution).
	MCBlockSize int

	// EvalAccuracy selects the numeric evaluation accuracy: empty is the
	// paper's reference contract (64-point densities); otherwise a
	// preset name ("reference", "fast", "coarse") or an explicit
	// "grid=G[,work=W]" spelling (stochastic.ParseEvalAccuracy). An
	// invalid spelling is an error, never a silent fallback.
	EvalAccuracy string

	// CaseTimeout bounds the wall-clock time of one case attempt;
	// 0 means no per-case deadline. Result-neutral: a case either
	// completes (same bytes as without the deadline) or fails the
	// attempt with a timeout, so the timeout never enters cache keys.
	CaseTimeout time.Duration
	// MaxRetries is the number of supervised re-attempts after a
	// case's first failed attempt (panic, timeout, or error); 0 means
	// none. Each re-attempt is a clean re-run from the case seed, so a
	// retried case is byte-identical to one that succeeded first try.
	MaxRetries int
}

// DefaultConfig returns laptop-scale settings: every driver finishes in
// seconds to a couple of minutes while preserving the paper's
// correlation structure (correlations stabilize well below 10 000
// schedules).
func DefaultConfig() Config {
	return Config{
		Schedules:      150,
		MCRealizations: 20000,
		Seed:           1,
		Delta:          0.1,
		Gamma:          1.0003,
	}
}

// PaperConfig returns the paper-scale settings (hours of compute).
// At 100 000 realizations per schedule the Monte-Carlo cost dominates,
// so paper scale selects the table samplers.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Schedules = 10000
	c.MCRealizations = 100000
	c.MCSampler = stochastic.SamplerTable.String()
	return c
}

// BenchConfig returns a minimal configuration for benchmarks.
func BenchConfig() Config {
	c := DefaultConfig()
	c.Schedules = 30
	c.MCRealizations = 3000
	return c
}

// params converts the config into metric parameters.
func (c Config) params() robustness.Params {
	return robustness.Params{Delta: c.Delta, Gamma: c.Gamma}
}

// Validate checks the fields every driver shares: δ and γ
// (robustness.Params.Check), the EvalAccuracy and MCSampler spellings,
// at least two random schedules per case (a correlation needs two), at
// least one Monte-Carlo realization, and a CaseTimeout and MaxRetries
// of 0 or more. Every driver runs it before any schedule is evaluated
// or any cached case is served, so one configuration fails the same
// way in all of them.
func (c Config) Validate() error {
	_, _, err := c.validate()
	return err
}

// validate is Validate returning the accuracy contract and the sampler
// mode it parsed.
func (c Config) validate() (stochastic.EvalAccuracy, stochastic.SamplerMode, error) {
	if err := c.params().Check(); err != nil {
		return stochastic.EvalAccuracy{}, 0, err
	}
	acc, err := c.EvalAccuracyValue()
	if err != nil {
		return acc, 0, err
	}
	mode, err := stochastic.ParseSamplerMode(c.MCSampler)
	if err != nil {
		return acc, mode, err
	}
	if c.Schedules < 2 {
		return acc, mode, fmt.Errorf("experiment: %d random schedules per case, want at least 2", c.Schedules)
	}
	if c.MCRealizations < 1 {
		return acc, mode, fmt.Errorf("experiment: %d Monte-Carlo realizations, want at least 1", c.MCRealizations)
	}
	if c.CaseTimeout < 0 {
		return acc, mode, fmt.Errorf("experiment: case timeout %v, want 0 (none) or more", c.CaseTimeout)
	}
	if c.MaxRetries < 0 {
		return acc, mode, fmt.Errorf("experiment: %d retries per case, want 0 (none) or more", c.MaxRetries)
	}
	return acc, mode, nil
}

// EvalAccuracyValue resolves the EvalAccuracy spelling into its
// canonical contract (empty is the reference contract).
func (c Config) EvalAccuracyValue() (stochastic.EvalAccuracy, error) {
	return stochastic.ParseEvalAccuracy(c.EvalAccuracy)
}

// schedulesFor scales the per-case schedule count the way the paper
// does: large graphs get a fifth of the budget (10000 → 2000).
func (c Config) schedulesFor(n int) int {
	if n >= 100 {
		s := c.Schedules / 5
		if s < 20 {
			s = 20
		}
		return s
	}
	return c.Schedules
}
