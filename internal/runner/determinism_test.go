package runner_test

// End-to-end determinism guarantees of the orchestrator, asserted on
// the real experiment pipeline: identical results at every worker
// count, and cache-resumed sweeps identical to uninterrupted ones.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/experiment"
	"repro/internal/runner"
)

// detConfig keeps the determinism sweeps fast: few schedules and a
// coarse density grid (determinism is scale-independent).
func detConfig() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Schedules = 10
	cfg.MCRealizations = 500
	cfg.EvalAccuracy = "grid=32"
	cfg.Seed = 7
	return cfg
}

// detSpecs returns a small mixed-family case list.
func detSpecs() []experiment.CaseSpec {
	derived := experiment.CaseSpec{Name: "det-derived-seed", Family: experiment.RandomFamily, N: 12, M: 3, UL: 1.01}
	return []experiment.CaseSpec{
		{Name: "det-cholesky", Family: experiment.CholeskyFamily, N: 10, M: 3, UL: 1.01, Seed: 11},
		{Name: "det-random", Family: experiment.RandomFamily, N: 20, M: 4, UL: 1.1, Seed: 12},
		{Name: "det-gauss", Family: experiment.GaussElimFamily, N: 15, M: 4, UL: 1.1, Seed: 13},
		derived.WithDerivedSeed(7),
	}
}

// encodeCases marshals results to canonical bytes (NaN-safe), the
// strictest practical equality for float-laden structs.
func encodeCases(t *testing.T, results []*experiment.CaseResult) []byte {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func runWithWorkers(t *testing.T, workers int, opts experiment.RunOptions) []byte {
	t.Helper()
	cfg := detConfig()
	cfg.Workers = workers
	pool := runner.NewPool(workers)
	defer pool.Close()
	opts.Pool = pool
	results, err := experiment.RunCases(context.Background(), detSpecs(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCases(t, results)
}

func TestRunCasesIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := runWithWorkers(t, 1, experiment.RunOptions{})
	for _, workers := range []int{2, 8} {
		if parallel := runWithWorkers(t, workers, experiment.RunOptions{}); !bytes.Equal(serial, parallel) {
			t.Errorf("results differ between Workers=1 and Workers=%d", workers)
		}
	}
}

func TestFig6IdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig6 worker-count sweep is slow")
	}
	if raceEnabled {
		t.Skip("two full Fig6 sweeps exceed the race detector's budget; the weekly full tier runs this without -race")
	}
	run := func(workers int) []byte {
		cfg := detConfig()
		cfg.Workers = workers
		res, err := experiment.Fig6Run(context.Background(), cfg, experiment.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Error("Fig6Result differs between Workers=1 and Workers=8")
	}
}

func TestCacheResumedRunMatchesUninterrupted(t *testing.T) {
	uncached := runWithWorkers(t, 4, experiment.RunOptions{})

	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := detSpecs()

	// Simulate an interrupted sweep: only the first half of the cases
	// completed and were cached.
	cfg := detConfig()
	if _, err := experiment.RunCases(context.Background(), specs[:2], cfg, experiment.RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if n, err := cache.Len(); err != nil || n != 2 {
		t.Fatalf("cache holds %d entries (err %v), want 2", n, err)
	}

	// The resumed full sweep must load those two and compute the rest,
	// producing exactly the uninterrupted results.
	resumed := runWithWorkers(t, 4, experiment.RunOptions{Cache: cache})
	if !bytes.Equal(uncached, resumed) {
		t.Error("cache-resumed sweep differs from the uninterrupted one")
	}
	if n, _ := cache.Len(); n != len(specs) {
		t.Errorf("cache holds %d entries after the full sweep, want %d", n, len(specs))
	}

	// A third run is served fully from cache and still matches.
	again := runWithWorkers(t, 4, experiment.RunOptions{Cache: cache})
	if !bytes.Equal(uncached, again) {
		t.Error("fully cached sweep differs from the uninterrupted one")
	}
}

// A sweep killed mid-run (context cancelled from the progress
// callback, as a crash or Ctrl-C would) must have cached the cases it
// finished, and a resume from that cache must produce byte-identical
// final output.
func TestCrashedSweepResumesByteIdentical(t *testing.T) {
	uncached := runWithWorkers(t, 4, experiment.RunOptions{})

	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := detSpecs()

	// Kill the sweep after the first finished case. One worker keeps
	// the crash point sharp: at most one more case can slip through the
	// admission race before cancellation lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := detConfig()
	cfg.Workers = 1
	_, err = experiment.RunCases(ctx, specs, cfg, experiment.RunOptions{
		Cache: cache,
		Progress: func(done, total int, name string) {
			if done == 1 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("killed sweep reported success")
	}
	n, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n >= len(specs) {
		t.Fatalf("crash left %d cached cases, want a strict non-empty prefix of %d", n, len(specs))
	}

	// The resume loads the finished prefix and computes the rest —
	// exactly the uninterrupted bytes, at a different worker count.
	resumed := runWithWorkers(t, 4, experiment.RunOptions{Cache: cache})
	if !bytes.Equal(uncached, resumed) {
		t.Error("crash-resumed sweep differs from the uninterrupted one")
	}
	if n, _ := cache.Len(); n != len(specs) {
		t.Errorf("cache holds %d entries after the resume, want %d", n, len(specs))
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	spec := detSpecs()[0]
	base := detConfig()
	k1, err := experiment.CaseCacheKey(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	mod := base
	mod.Schedules++
	k2, _ := experiment.CaseCacheKey(spec, mod)
	if k1 == k2 {
		t.Error("schedule count not part of the cache key")
	}
	// Worker count and MC realizations do not affect case results and
	// must not fragment the cache.
	mod = base
	mod.Workers = 99
	mod.MCRealizations = 77777
	k3, _ := experiment.CaseCacheKey(spec, mod)
	if k1 != k3 {
		t.Error("result-neutral config fields fragment the cache")
	}
	spec2 := spec
	spec2.UL = 1.2
	k4, _ := experiment.CaseCacheKey(spec2, base)
	if k1 == k4 {
		t.Error("spec not part of the cache key")
	}
	// The Monte-Carlo kernel settings select a different realization
	// stream, so they must invalidate cached entries.
	mod = base
	mod.MCSampler = "table"
	k5, _ := experiment.CaseCacheKey(spec, mod)
	if k1 == k5 {
		t.Error("sampler mode not part of the cache key")
	}
	mod = base
	mod.MCBlockSize = 1024
	k6, _ := experiment.CaseCacheKey(spec, mod)
	if k1 == k6 {
		t.Error("MC block size not part of the cache key")
	}
}

func TestRunCasesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the sweep must bail out promptly
	_, err := experiment.RunCases(ctx, detSpecs(), detConfig(), experiment.RunOptions{})
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
