package makespan

import (
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// MCOptions tunes the Monte-Carlo engine. The zero value reproduces
// the historical behaviour exactly: the compiled kernel in exact
// sampler mode at the default block size, which is bit-identical to
// the per-sample reference engine.
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
	// Workers bounds the kernel's goroutines; results are identical
	// for every value.
	Workers int
}

func (o MCOptions) kernelOptions() schedule.KernelOptions {
	return schedule.KernelOptions{BlockSize: o.BlockSize, Workers: o.Workers}
}

// MonteCarloWith draws count realizations of the schedule through the
// compiled batch kernel and returns the empirical makespan
// distribution.
func MonteCarloWith(scen *platform.Scenario, s *schedule.Schedule, count int, seed int64, opt MCOptions) (*stochastic.Empirical, error) {
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		return nil, err
	}
	return sim.Compile(opt.Sampler).Empirical(count, seed, opt.kernelOptions()), nil
}
