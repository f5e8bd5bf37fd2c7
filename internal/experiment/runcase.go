package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// HeuristicResult pairs a heuristic's name with its metric vector.
type HeuristicResult struct {
	Name    string
	Metrics robustness.Metrics
}

// CaseResult is the outcome of one correlation case: the metric
// vectors of every random schedule, the three heuristics' vectors, and
// the 8×8 Pearson matrix over the random schedules (computed on the
// inverted columns, like the paper's plots).
type CaseResult struct {
	Spec       CaseSpec
	Metrics    []robustness.Metrics
	Heuristics []HeuristicResult
	Corr       [][]float64
	// RelByMakespanVsStd is the §VII side result: Pearson of the
	// (inverted) relative probabilistic metric divided by the makespan
	// against the makespan standard deviation.
	RelByMakespanVsStd float64
	// Degraded, when non-empty, names the coarser evaluation accuracy
	// this result was delivered at after every timed attempt at the
	// configured accuracy hit the case deadline (the supervised
	// runner's degradation ladder). Empty on every normal result, so
	// fault-free documents are byte-identical to pre-resilience ones.
	Degraded string `json:",omitempty"`
}

// InvertedColumns converts metric vectors into the column orientation
// of the paper's plots: the slack is subtracted from the case maximum
// and the probabilistic metrics from 1, so that every metric improves
// downward (§VI).
func InvertedColumns(ms []robustness.Metrics) [][]float64 {
	k := robustness.NumMetrics
	cols := make([][]float64, k)
	for i := range cols {
		cols[i] = make([]float64, len(ms))
	}
	maxSlack := math.Inf(-1)
	for _, m := range ms {
		if m.AvgSlack > maxSlack {
			maxSlack = m.AvgSlack
		}
	}
	for r, m := range ms {
		v := m.Vector()
		for c := 0; c < k; c++ {
			cols[c][r] = v[c]
		}
		cols[3][r] = maxSlack - m.AvgSlack // slack: maximize → minimize
		cols[6][r] = 1 - m.AbsProb         // A(δ): maximize → minimize
		cols[7][r] = 1 - m.RelProb         // R(γ): maximize → minimize
	}
	return cols
}

// evaluateOne computes the metric vector of one schedule under the
// classical makespan evaluation, through the case's shared compiled
// evaluation cache: the disjunctive structure is built once per
// schedule and every distinct duration/communication distribution is
// discretized once per case.
func evaluateOne(cache *makespan.EvalCache, s *schedule.Schedule, cfg Config) (robustness.Metrics, error) {
	m, err := cache.Model(s)
	if err != nil {
		return robustness.Metrics{}, err
	}
	return m.Metrics(cfg.params(cache.Accuracy())), nil
}

// RunCase executes one correlation case: it generates the scenario,
// draws the configured number of random schedules, evaluates all
// metrics for each (in parallel on a private pool), evaluates the
// three heuristics, and assembles the Pearson matrix.
func RunCase(spec CaseSpec, cfg Config) (*CaseResult, error) {
	pool := runner.NewPool(cfg.workers())
	defer pool.Close()
	return RunCaseOn(context.Background(), spec, cfg, pool)
}

// RunCaseOn is RunCase executing its per-schedule evaluations on a
// shared worker pool. Sweeps run many cases concurrently against one
// pool, so the case×schedule evaluations form a single job stream and
// the pool stays saturated across case boundaries. Results are
// written into index-addressed slots, so they are identical for every
// worker count.
func RunCaseOn(ctx context.Context, spec CaseSpec, cfg Config, pool *runner.Pool) (*CaseResult, error) {
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return nil, err
	}
	// Chaos-injection scope: nil outside chaos runs, so the fault
	// hooks below cost one pointer check per job on the happy path.
	scope := resilience.ScopeFrom(ctx)
	// The serial phases run as (single-job) pool batches too, so the
	// whole case — generation and assembly, not just the fan-out —
	// stays inside the worker bound even when many cases are in
	// flight.
	var (
		scen   *platform.Scenario
		cache  *makespan.EvalCache
		scheds []*schedule.Schedule
	)
	err = pool.Batch(ctx, 1, func(int) error {
		if err := scope.Hit("build"); err != nil {
			return err
		}
		var err error
		scen, err = spec.BuildScenario()
		if err != nil {
			return err
		}
		cache = makespan.NewEvalCacheAccuracy(scen, acc)
		rng := rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
		scheds = heuristics.RandomSchedules(scen, cfg.schedulesFor(scen.G.N()), rng)
		return nil
	})
	if err != nil {
		return nil, err
	}
	nSched := len(scheds)

	metrics := make([]robustness.Metrics, nSched)
	err = pool.Batch(ctx, nSched, func(i int) error {
		if scope != nil {
			if err := scope.Hit("eval/" + strconv.Itoa(i)); err != nil {
				return err
			}
		}
		var err error
		metrics[i], err = evaluateOne(cache, scheds[i], cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: case %q: %w", spec.Name, err)
	}

	res := &CaseResult{Spec: spec, Metrics: metrics}
	// The heuristic evaluations go through the pool too: each costs as
	// much as a schedule job, and running them on the case goroutine
	// would let a wide sweep exceed the -workers bound. Rows follow
	// heuristics.All, which lists the heuristics by name.
	hs := heuristics.All()
	hres := make([]HeuristicResult, len(hs))
	err = pool.Batch(ctx, len(hs), func(i int) error {
		h := hs[i]
		if err := scope.Hit("heur/" + h.Name); err != nil {
			return err
		}
		hr, err := h.Fn(scen)
		if err != nil {
			return fmt.Errorf("experiment: case %q heuristic %s: %w", spec.Name, h.Name, err)
		}
		m, err := evaluateOne(cache, hr.Schedule, cfg)
		if err != nil {
			return fmt.Errorf("experiment: case %q heuristic %s: %w", spec.Name, h.Name, err)
		}
		hres[i] = HeuristicResult{Name: h.Name, Metrics: m}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Heuristics = hres

	err = pool.Batch(ctx, 1, func(int) error {
		cols := InvertedColumns(metrics)
		corr, err := stats.CorrMatrix(cols)
		if err != nil {
			return err
		}
		res.Corr = corr

		// §VII: the relative probabilistic metric divided by the
		// makespan (then inverted like the other probabilistic metrics)
		// against σ_M.
		relBy := make([]float64, nSched)
		stds := make([]float64, nSched)
		for i, m := range metrics {
			relBy[i] = 1 - m.RelProbByMakespan()
			stds[i] = m.StdDev
		}
		res.RelByMakespanVsStd = stats.Pearson(relBy, stds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BestRandomMakespan returns the smallest expected makespan among the
// case's random schedules (used to check the heuristics dominate).
func (r *CaseResult) BestRandomMakespan() float64 {
	best := math.Inf(1)
	for _, m := range r.Metrics {
		if m.Makespan < best {
			best = m.Makespan
		}
	}
	return best
}
