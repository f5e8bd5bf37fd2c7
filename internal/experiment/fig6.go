package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Fig6Result aggregates the correlation matrices of the 24 cases into
// the paper's Fig. 6: element-wise mean (upper triangle when printed)
// and standard deviation (lower triangle), plus the §VII side result
// on R(γ)/M.
type Fig6Result struct {
	Cases          []*CaseResult
	Mean, Std      [][]float64
	RelByMkspnMean float64 // mean Pearson of (1-R)/M vs σ_M (paper: 0.998)
	RelByMkspnStd  float64 // its std-dev across cases (paper: 0.009)
}

// Fig6Run runs all correlation cases and aggregates their Pearson
// matrices. The cases progress concurrently through one shared worker
// pool (opts.Pool, or a temporary one), optionally resuming from
// opts.Cache. The aggregation visits cases in spec order, so the
// result — and any report rendered from it — is byte-identical to a
// sequential run for a fixed seed, at every worker count.
func Fig6Run(ctx context.Context, cfg Config, opts RunOptions) (*Fig6Result, error) {
	return AggregateCases(ctx, Fig6Cases(cfg.Seed), cfg, opts)
}

// AggregateCases runs any case list and aggregates the per-case
// Pearson matrices the way Fig. 6 does (element-wise mean and std,
// NaN cells skipped); custom Sweep grids reuse it to get the same
// report types as the paper's figure. Under RunOptions.KeepGoing,
// permanently failed cases (nil slots, enumerated in opts.Report) are
// excluded from the aggregation rather than failing it; when every
// case failed, there is nothing to aggregate and that is an error.
func AggregateCases(ctx context.Context, specs []CaseSpec, cfg Config, opts RunOptions) (*Fig6Result, error) {
	cases, err := RunCases(ctx, specs, cfg, opts)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	var mats [][][]float64
	var relVals []float64
	for _, cr := range cases {
		if cr == nil {
			continue
		}
		res.Cases = append(res.Cases, cr)
		mats = append(mats, cr.Corr)
		if !math.IsNaN(cr.RelByMakespanVsStd) {
			relVals = append(relVals, cr.RelByMakespanVsStd)
		}
	}
	if len(mats) == 0 && len(specs) > 0 {
		return nil, fmt.Errorf("experiment: every case failed, %d of %d (see the failure report)", len(specs), len(specs))
	}
	mean, std, err := stats.AggregateMatrices(mats)
	if err != nil {
		return nil, err
	}
	res.Mean, res.Std = mean, std
	if len(relVals) > 0 {
		var sum float64
		for _, v := range relVals {
			sum += v
		}
		mu := sum / float64(len(relVals))
		var ss float64
		for _, v := range relVals {
			d := v - mu
			ss += d * d
		}
		res.RelByMkspnMean = mu
		res.RelByMkspnStd = math.Sqrt(ss / float64(len(relVals)))
	}
	return res, nil
}

// metricShortNames are compact labels used in reports.
var metricShortNames = []string{
	"makespan", "stddev", "entropy", "slack", "slackstd", "lateness", "absprob", "relprob",
}
