package makespan

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// MCOptions tunes the Monte-Carlo engine. The zero value selects the
// compiled kernel in exact sampler mode at the default block size.
type MCOptions struct {
	// Sampler selects the realization samplers; SamplerTable trades
	// bit-compatibility for table-driven Beta sampling (several times
	// faster, within 1/stochastic.BetaTableSize in Kolmogorov
	// distance).
	Sampler stochastic.SamplerMode
	// BlockSize is the realizations-per-batch granularity
	// (schedule.DefaultBlockSize when <= 0). Results depend on it:
	// each block owns one RNG stream.
	BlockSize int
}

// MonteCarloWith draws count realizations of the schedule through the
// compiled batch kernel and returns the empirical makespan
// distribution. The kernel runs on the caller and on helpers on idle
// processors. A count below 1 and a sampler other than SamplerExact or
// SamplerTable are errors.
func MonteCarloWith(scen *platform.Scenario, s *schedule.Schedule, count int, seed int64, opt MCOptions) (*stochastic.Empirical, error) {
	if count < 1 {
		return nil, fmt.Errorf("makespan: %d Monte-Carlo realizations, want at least 1", count)
	}
	if opt.Sampler != stochastic.SamplerExact && opt.Sampler != stochastic.SamplerTable {
		return nil, fmt.Errorf("makespan: unknown sampler mode %d", int(opt.Sampler))
	}
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		return nil, err
	}
	return sim.Compile(opt.Sampler).Empirical(count, seed, schedule.KernelOptions{BlockSize: opt.BlockSize}), nil
}
