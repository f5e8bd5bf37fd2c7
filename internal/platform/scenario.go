package platform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/stochastic"
)

// Scenario bundles a task graph, a platform and an uncertainty level
// into the paper's stochastic scheduling problem: every ETC entry and
// every communication time is the minimum of a Beta(2,5) random
// variable stretched over [min, min·UL].
//
// Two extensions from the paper's future-work list (§VIII) are
// supported:
//
//   - TaskUL gives each task its own uncertainty level (a non-constant
//     UL breaks the proportionality between duration means and standard
//     deviations, which the paper conjectures degrades the makespan as a
//     robustness proxy);
//   - DurFn swaps the Beta(2,5) duration family for any other
//     distribution over [min, min·ul] (e.g. oscillating non-standard
//     densities).
type Scenario struct {
	G  *dag.Graph
	P  *Platform
	UL float64 // uncertainty level, >= 1 (1 = deterministic)

	// TaskUL optionally overrides UL per task (length must be G.N()
	// when non-nil). Communication times keep the global UL.
	TaskUL []float64

	// ProcUL optionally overrides the uncertainty level per processor
	// (length P.M when non-nil); it takes precedence over TaskUL and
	// UL for task durations. It models platforms where some machines
	// are time-shared/noisy and others dedicated/stable.
	ProcUL []float64

	// DurFn optionally builds the duration distribution for a minimum
	// value and an uncertainty level. nil selects the paper's
	// Beta(2,5) over [min, min·ul].
	DurFn func(min, ul float64) stochastic.Dist
}

// BetaMeanFactor is E[Beta(2,5)] on [0,1]: under the default model the
// mean duration is min·(1 + (UL-1)·BetaMeanFactor).
const BetaMeanFactor = 2.0 / 7.0

// MeanFromMin converts a minimum duration into its mean under the
// default Beta(2,5) uncertainty model with level ul.
func MeanFromMin(min, ul float64) float64 {
	if ul <= 1 {
		return min
	}
	return min * (1 + (ul-1)*BetaMeanFactor)
}

// ULFor returns the uncertainty level of task t (ignoring any
// per-processor override).
func (s *Scenario) ULFor(t dag.Task) float64 {
	if s.TaskUL != nil && int(t) < len(s.TaskUL) {
		return s.TaskUL[t]
	}
	return s.UL
}

// ULAt returns the uncertainty level of task t when it runs on
// processor proc: the per-processor override when set, otherwise the
// per-task/global level.
func (s *Scenario) ULAt(t dag.Task, proc int) float64 {
	if s.ProcUL != nil && proc < len(s.ProcUL) {
		return s.ProcUL[proc]
	}
	return s.ULFor(t)
}

// durDist builds a duration distribution for the given minimum and
// uncertainty level using the configured family. A custom DurFn is
// consulted even at min = 0: the paper's multiplicative families
// degenerate there (a distribution over [0, 0·UL] is Dirac(0)), but an
// additive family — e.g. a fixed network overhead plus noise — can
// carry mass above a zero minimum, which is exactly the zero-latency
// regime whose arcs the evaluators used to drop (see
// makespan.EvalModel). The default Beta family keeps its Dirac
// shortcut.
func (s *Scenario) durDist(min, ul float64) stochastic.Dist {
	if ul <= 1 {
		return stochastic.Dirac{Value: min}
	}
	if s.DurFn != nil {
		return s.DurFn(min, ul)
	}
	if min <= 0 {
		return stochastic.Dirac{Value: min}
	}
	return stochastic.NewBetaUL(min, ul)
}

// DurationAt builds the scenario's duration distribution for an
// arbitrary minimum value at the global UL (used by heuristics for
// placement-agnostic estimates).
func (s *Scenario) DurationAt(min float64) stochastic.Dist {
	return s.durDist(min, s.UL)
}

// MeanAt returns the mean of DurationAt(min): the closed form
// MeanFromMin under the default Beta(2,5) family, otherwise the
// configured family's own mean.
func (s *Scenario) MeanAt(min float64) float64 {
	if s.DurFn == nil {
		return MeanFromMin(min, s.UL)
	}
	return s.DurationAt(min).Mean()
}

// DurDist builds the scenario's duration distribution for an arbitrary
// minimum value and uncertainty level — the family every TaskDist and
// CommDist draws from. A distribution is a pure function of
// (min, ul) for a fixed scenario, which is what lets evaluation caches
// deduplicate discretizations by that pair.
func (s *Scenario) DurDist(min, ul float64) stochastic.Dist {
	return s.durDist(min, ul)
}

// TaskDist returns the duration distribution of task t on processor
// proc.
func (s *Scenario) TaskDist(t dag.Task, proc int) stochastic.Dist {
	return s.durDist(s.P.ETC[t][proc], s.ULAt(t, proc))
}

// CommDist returns the distribution of the communication time of edge
// from→to when the endpoints run on pi and pj. Co-located tasks
// communicate in zero time (exactly Dirac at 0, by model definition —
// a custom DurFn never applies to the diagonal), while a cross-processor
// link with zero minimum time (zero-latency network) may still carry
// stochastic mass under an additive DurFn.
func (s *Scenario) CommDist(from, to dag.Task, pi, pj int) stochastic.Dist {
	if pi == pj {
		return stochastic.Dirac{Value: 0}
	}
	min := s.P.MinCommTime(s.G.Volume(from, to), pi, pj)
	return s.durDist(min, s.UL)
}

// MeanTask returns the mean duration of task t on processor proc.
func (s *Scenario) MeanTask(t dag.Task, proc int) float64 {
	return s.TaskDist(t, proc).Mean()
}

// MeanComm returns the mean communication time of edge from→to between
// processors pi and pj.
func (s *Scenario) MeanComm(from, to dag.Task, pi, pj int) float64 {
	return s.CommDist(from, to, pi, pj).Mean()
}

// CheckUL rejects an uncertainty level outside [1, +Inf), NaN
// included. Durations range over [min, min·UL], so a level below 1
// would silently run deterministic durations, and a NaN or infinite
// one breaks the evaluators' density grids.
func CheckUL(ul float64) error {
	if !(ul >= 1) || math.IsInf(ul, 1) {
		return fmt.Errorf("platform: uncertainty level %v: want 1 <= UL < +Inf", ul)
	}
	return nil
}

// CheckLevels rejects a scenario whose UL, or any TaskUL or ProcUL
// entry, is outside [1, +Inf) (see CheckUL), or whose TaskUL or ProcUL
// is non-nil without one level per task or per processor (ULFor and
// ULAt would give the uncovered ones the global UL). Evaluation entry
// points call it, so levels set by hand cannot reach a density grid.
func (s *Scenario) CheckLevels() error {
	if err := CheckUL(s.UL); err != nil {
		return err
	}
	if s.TaskUL != nil && len(s.TaskUL) != s.G.N() {
		return fmt.Errorf("platform: %d TaskUL entries for %d tasks", len(s.TaskUL), s.G.N())
	}
	if s.ProcUL != nil && len(s.ProcUL) != s.P.M {
		return fmt.Errorf("platform: %d ProcUL entries for %d processors", len(s.ProcUL), s.P.M)
	}
	for t, ul := range s.TaskUL {
		if err := CheckUL(ul); err != nil {
			return fmt.Errorf("TaskUL[%d]: %w", t, err)
		}
	}
	for p, ul := range s.ProcUL {
		if err := CheckUL(ul); err != nil {
			return fmt.Errorf("ProcUL[%d]: %w", p, err)
		}
	}
	return nil
}

// WithVariableUL returns a copy of the scenario whose tasks draw their
// uncertainty levels uniformly from [ulLo, ulHi] (the paper's §VIII
// variable-UL future work). The graph and platform are shared. Both
// bounds must pass CheckUL, and ulLo must not exceed ulHi.
func (s *Scenario) WithVariableUL(ulLo, ulHi float64, rng *rand.Rand) (*Scenario, error) {
	for _, ul := range []float64{ulLo, ulHi} {
		if err := CheckUL(ul); err != nil {
			return nil, err
		}
	}
	if ulLo > ulHi {
		return nil, fmt.Errorf("platform: variable uncertainty levels [%v, %v]: lower bound above upper", ulLo, ulHi)
	}
	c := *s
	uls := make([]float64, s.G.N())
	for i := range uls {
		uls[i] = ulLo + rng.Float64()*(ulHi-ulLo)
	}
	c.TaskUL = uls
	return &c, nil
}

// WithNoisyProcessors returns a copy of the scenario where
// even-numbered processors are stable (UL = stableUL) and odd-numbered
// ones noisy (UL = noisyUL), with the noisy processors' ETC columns
// rescaled so that every task's MEAN duration is identical on a stable
// and on a noisy processor. In this setting a mean-based heuristic is
// blind to the noise while a σ-aware one (SDHEFT) can trade placement
// for robustness — the paper's §VIII proposal in its purest form.
// Both levels must pass CheckUL.
func (s *Scenario) WithNoisyProcessors(stableUL, noisyUL float64) (*Scenario, error) {
	for _, ul := range []float64{stableUL, noisyUL} {
		if err := CheckUL(ul); err != nil {
			return nil, err
		}
	}
	c := *s
	// Mean scale factor of the duration family per unit of minimum.
	factor := func(ul float64) float64 { return s.durDist(1, ul).Mean() }
	fs, fn := factor(stableUL), factor(noisyUL)
	etc := make([][]float64, len(s.P.ETC))
	for i, row := range s.P.ETC {
		r := append([]float64(nil), row...)
		for p := range r {
			if p%2 == 1 && fn > 0 {
				r[p] = r[p] * fs / fn // equalize means with the stable columns
			}
		}
		etc[i] = r
	}
	pc := *s.P
	pc.ETC = etc
	c.P = &pc
	uls := make([]float64, s.P.M)
	for p := range uls {
		if p%2 == 1 {
			uls[p] = noisyUL
		} else {
			uls[p] = stableUL
		}
	}
	c.ProcUL = uls
	return &c, nil
}
