package experiment

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// Every driver rejects a configuration it cannot run (Config.Validate)
// before it evaluates a schedule or serves a cached case. Unchecked,
// δ = −1 read A = 0 and γ = 0.5 read R = 0 for every schedule, δ NaN
// read A = NaN and γ +Inf read R = 1; RunCase ran a misspelled sampler
// to completion; fewer than two schedules read NaN correlations; Fig. 1
// read KS 0, a perfect match, against zero realizations, and panicked
// on a negative count; a negative MaxRetries or CaseTimeout ran as 0.
func TestDriversRejectBadMetricParams(t *testing.T) {
	spec := Fig3Case(1)
	ctx := context.Background()
	drivers := []struct {
		name string
		run  func(*testing.T, Config) error
	}{
		{"RunCase", func(t *testing.T, cfg Config) error {
			_, err := RunCase(spec, cfg)
			return err
		}},
		{"RunCaseOn", func(t *testing.T, cfg Config) error {
			pool := runner.NewPool(1)
			defer pool.Close()
			_, err := RunCaseOn(ctx, spec, cfg, pool)
			return err
		}},
		{"RunCases", func(t *testing.T, cfg Config) error {
			_, err := RunCases(ctx, []CaseSpec{spec}, cfg, RunOptions{})
			return err
		}},
		// A cached result of the case must not be served, and the
		// rejection must not be recorded as a failed case and skipped.
		{"RunCases cached, keep going", func(t *testing.T, cfg Config) error {
			cache, err := runner.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// A non-finite δ or γ has no cache key, so no entry.
			if key, err := CaseCacheKey(spec, cfg); err == nil {
				data, err := json.Marshal(&CaseResult{Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				if err := cache.Put(key, data); err != nil {
					t.Fatal(err)
				}
			}
			_, err = RunCases(ctx, []CaseSpec{spec}, cfg, RunOptions{Cache: cache, KeepGoing: true})
			return err
		}},
		{"AggregateCases", func(t *testing.T, cfg Config) error {
			_, err := AggregateCases(ctx, []CaseSpec{spec}, cfg, RunOptions{})
			return err
		}},
		{"Fig6Run", func(t *testing.T, cfg Config) error {
			_, err := Fig6Run(ctx, cfg, RunOptions{})
			return err
		}},
		{"Fig1", func(t *testing.T, cfg Config) error {
			_, err := Fig1(cfg, []int{10}, 1)
			return err
		}},
		{"Fig2", func(t *testing.T, cfg Config) error {
			_, err := Fig2(cfg)
			return err
		}},
		{"Fig9", func(t *testing.T, cfg Config) error {
			_, err := Fig9(cfg, 0)
			return err
		}},
		{"VariableUL", func(t *testing.T, cfg Config) error {
			_, err := VariableUL(cfg)
			return err
		}},
		{"OscillatingDurationsCase", func(t *testing.T, cfg Config) error {
			_, err := OscillatingDurationsCase(cfg)
			return err
		}},
		{"AccuracyStudyRun", func(t *testing.T, cfg Config) error {
			_, err := AccuracyStudyRun(cfg)
			return err
		}},
	}
	nan, inf := math.NaN(), math.Inf(1)
	bads := []struct {
		name string
		set  func(*Config)
	}{
		{"δ = -1", func(c *Config) { c.Delta = -1 }},
		{"δ = NaN", func(c *Config) { c.Delta = nan }},
		{"δ = +Inf", func(c *Config) { c.Delta = inf }},
		{"γ = 0.5", func(c *Config) { c.Gamma = 0.5 }},
		{"γ = NaN", func(c *Config) { c.Gamma = nan }},
		{"γ = +Inf", func(c *Config) { c.Gamma = inf }},
		{"EvalAccuracy typo", func(c *Config) { c.EvalAccuracy = "typo" }},
		{"MCSampler typo", func(c *Config) { c.MCSampler = "typo" }},
		{"0 schedules", func(c *Config) { c.Schedules = 0 }},
		{"1 schedule", func(c *Config) { c.Schedules = 1 }},
		{"0 realizations", func(c *Config) { c.MCRealizations = 0 }},
		{"-5 realizations", func(c *Config) { c.MCRealizations = -5 }},
		{"-3 retries", func(c *Config) { c.MaxRetries = -3 }},
		{"-1s case timeout", func(c *Config) { c.CaseTimeout = -time.Second }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for _, bad := range bads {
				cfg := DefaultConfig()
				cfg.Schedules = 5
				bad.set(&cfg)
				if err := d.run(t, cfg); err == nil {
					t.Errorf("accepted %s", bad.name)
				}
			}
		})
	}
}

// RunCases rejects an invalid EvalAccuracy or MCSampler once, before
// any case runs. Checked per case instead, under KeepGoing each case
// ran every retry with backoff and was recorded as failed, and RunCases
// returned nil slots and a nil error, which AggregateCases then turned
// into "stats: no matrices".
func TestRunCasesRejectsBadConfigUpFront(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"EvalAccuracy", func(c *Config) { c.EvalAccuracy = "typo" }},
		{"MCSampler", func(c *Config) { c.MCSampler = "typo" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Schedules = 5
			cfg.MaxRetries = 2
			tc.set(&cfg)
			progress := 0
			results, err := RunCases(context.Background(), []CaseSpec{Fig3Case(1), Fig3Case(2)}, cfg, RunOptions{
				KeepGoing: true,
				Progress:  func(done, total int, name string) { progress++ },
			})
			if err == nil || !strings.Contains(err.Error(), `"typo"`) {
				t.Fatalf("RunCases = %d results, error %v; want the %s error", len(results), err, tc.name)
			}
			if progress != 0 {
				t.Fatalf("%d cases reported progress before the error", progress)
			}
		})
	}
}
