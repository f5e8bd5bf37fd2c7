package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/resilience"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// RunOptions configures orchestrated case execution.
type RunOptions struct {
	// Pool is the shared worker pool carrying the per-schedule
	// evaluation jobs; nil creates a temporary pool of cfg.workers()
	// workers for the duration of the call.
	Pool *runner.Pool
	// Cache, when non-nil, is consulted before computing a case and
	// filled after, making interrupted sweeps resumable.
	Cache *runner.Cache
	// Progress, when non-nil, receives one call per finished case (in
	// completion order; done counts finished cases, including
	// permanently failed ones under KeepGoing).
	Progress func(done, total int, name string)
	// Report, when non-nil, accumulates the structured failure summary
	// of the sweep: per-case attempts, degradations, quarantined cache
	// entries, injected faults.
	Report *RunReport
	// Injector, when non-nil, arms chaos injection: RunCaseOn consults
	// it at named sites (case/<name>/attempt<k>/{build,eval/<i>,
	// heur/<h>}). Production runs leave it nil — the happy path then
	// carries a single nil check per job.
	Injector *resilience.Injector
	// KeepGoing makes a case that permanently fails (after every
	// retry) record its failure and leave a nil result slot instead of
	// cancelling the sweep — completing as much work as possible under
	// adverse conditions. The failures are enumerated in Report.
	KeepGoing bool
}

// caseCacheVersion tags cache entries; bump it whenever the result
// semantics or encoding of a case change. v3: CaseSpec identifies its
// workload by the registered family name (a stable string) instead of
// the old iota-valued GraphKind, whose integer hash silently aliased
// cache entries across families whenever the enum was reordered or
// grew in the middle.
const caseCacheVersion = "repro/case/v3"

// caseCacheVersionAcc tags entries computed under a non-reference
// resampling policy (EvalAccuracy with a tightened work-grid cap). The
// reference policy keeps emitting v3 keys, so the accuracy knob's
// default never invalidates caches written before it existed.
const caseCacheVersionAcc = "repro/case/v4"

// CaseCacheKey derives the disk-cache key of a case: a hash of the
// full spec (workload family by stable name) and every configuration
// field that can affect the result. Worker count never does. The correlation cases are evaluated
// analytically today, so the Monte-Carlo realization count stays out
// of the key — but the sampler mode and block size are included, so
// any future Monte-Carlo-backed case can never serve a stale entry
// computed under a different realization stream. The Monte-Carlo
// fields are hashed in canonical form ("" and "exact" name the same
// sampler; block size <= 0 means schedule.DefaultBlockSize), so
// spelling a default out explicitly never invalidates a cache. The
// evaluation accuracy follows the same rule: any spelling that resolves
// to the reference resampling policy hashes exactly like the
// pre-accuracy configs (v3, grid size only), while a tightened
// work-grid cap moves to v4 keys that include the cap.
//
//reprovet:cachekey CaseSpec
//reprovet:cachekey Config -exempt MCRealizations,Workers,Seed,CaseTimeout,MaxRetries,DegradeOnTimeout
func CaseCacheKey(spec CaseSpec, cfg Config) (string, error) {
	mode, err := stochastic.ParseSamplerMode(cfg.MCSampler)
	if err != nil {
		return "", err
	}
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return "", err
	}
	blockSize := cfg.MCBlockSize
	if blockSize <= 0 {
		blockSize = schedule.DefaultBlockSize
	}
	if acc.WorkGrid == stochastic.DefaultMaxWorkGrid {
		return runner.Key(caseCacheVersion, spec, struct {
			Schedules   int
			GridSize    int
			Delta       float64
			Gamma       float64
			MCSampler   string
			MCBlockSize int
		}{cfg.Schedules, acc.GridSize, cfg.Delta, cfg.Gamma, mode.String(), blockSize})
	}
	return runner.Key(caseCacheVersionAcc, spec, struct {
		Schedules   int
		GridSize    int
		WorkGrid    int
		Delta       float64
		Gamma       float64
		MCSampler   string
		MCBlockSize int
	}{cfg.Schedules, acc.GridSize, acc.WorkGrid, cfg.Delta, cfg.Gamma, mode.String(), blockSize})
}

// RunCases executes every spec concurrently on one shared worker
// pool: each case streams its schedule-evaluation jobs into the same
// pool, so all cases progress together and the pool never idles while
// any case has work left. Results come back in spec order regardless
// of completion order, and are byte-identical for every worker count.
//
// Execution is supervised: a panicking case fails with a typed error
// instead of crashing the process, cfg.CaseTimeout bounds each
// attempt, failed attempts retry up to cfg.MaxRetries times with
// deterministic jittered backoff, and cfg.DegradeOnTimeout arms the
// accuracy-degradation ladder. Retried cases re-run from their case
// seed, so every delivered non-degraded result is byte-identical to a
// fault-free run. With opts.KeepGoing a permanently failed case
// yields a nil result slot (recorded in opts.Report) instead of
// aborting its siblings.
//
// Specs are run with exactly the seeds they carry (RunCases and
// RunCase always agree); ad-hoc sweeps that don't want to
// hand-number their cases can seed them with WithDerivedSeed first.
func RunCases(ctx context.Context, specs []CaseSpec, cfg Config, opts RunOptions) ([]*CaseResult, error) {
	pool := opts.Pool
	if pool == nil {
		pool = runner.NewPool(cfg.workers())
		defer pool.Close()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*CaseResult, len(specs))
	errs := make([]error, len(specs))
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	// Cases in flight are bounded by the pool size: a case's serial
	// phases (scenario build, schedule generation, matrix assembly)
	// run on its own goroutine, and admitting more cases than workers
	// would let that serial work exceed the -workers bound. Admission
	// follows spec order, so an interrupted sweep has finished — and
	// cached — a prefix of the cases instead of leaving two dozen all
	// half-done.
	caseCh := make(chan int)
	go func() {
		defer close(caseCh)
		for i := range specs {
			select {
			case caseCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	caseWorkers := pool.Workers()
	if caseWorkers > len(specs) {
		caseWorkers = len(specs)
	}
	for w := 0; w < caseWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range caseCh {
				spec := specs[i]
				res, err := runCaseSupervised(ctx, spec, cfg, pool, opts)
				results[i], errs[i] = res, err
				if err != nil {
					if opts.KeepGoing && ctx.Err() == nil {
						// The failure is recorded in opts.Report; the
						// sweep completes the remaining cases.
						errs[i] = nil
					} else {
						cancel() // fail fast: stop sibling cases
						return
					}
				}
				if opts.Progress != nil {
					progressMu.Lock()
					done++
					opts.Progress(done, len(specs), spec.Name)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// Prefer a root-cause error over the context.Canceled echoes the
	// fail-fast cancellation produces in sibling cases.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// All recorded errors were nil, but cancellation may have struck
	// before some cases were even admitted.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runCaseSupervised is the fault boundary around one case: panic
// recovery, per-attempt deadlines, retry with deterministic backoff,
// and the timeout-degradation ladder. Every attempt is a clean re-run
// from the case seed through runCaseCached, so whichever attempt
// succeeds delivers exactly the bytes a fault-free run would.
func runCaseSupervised(ctx context.Context, spec CaseSpec, cfg Config, pool *runner.Pool, opts RunOptions) (*CaseResult, error) {
	attempts := 1
	if cfg.MaxRetries > 0 {
		attempts += cfg.MaxRetries
	}
	rep := CaseReport{Case: spec.Name}
	var lastErr error
	timeouts := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := resilience.Sleep(ctx, resilience.Backoff(attempt, spec.Seed, spec.Name)); err != nil {
				return nil, err // sweep cancelled while backing off
			}
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.CaseTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cfg.CaseTimeout)
		}
		actx = resilience.WithScope(actx, opts.Injector,
			fmt.Sprintf("case/%s/attempt%d/", spec.Name, attempt))
		var res *CaseResult
		err := resilience.Protect(func() error {
			var err error
			res, err = runCaseCached(actx, spec, cfg, pool, opts.Cache)
			return err
		})
		cancel()
		if err == nil {
			rep.Attempts = append(rep.Attempts, AttemptReport{Outcome: "ok"})
			opts.Report.recordCase(rep)
			return res, nil
		}
		if ctx.Err() != nil {
			// The sweep itself was cancelled or timed out above us: not
			// a case fault, nothing to retry or record.
			return nil, err
		}
		kind := resilience.ClassifyKind(err)
		if kind == "timeout" {
			timeouts++
		}
		rep.Attempts = append(rep.Attempts, AttemptReport{Outcome: kind, Error: err.Error()})
		lastErr = err
	}

	// Degradation ladder: every timed attempt hit the deadline, so a
	// finer evaluation will not fit the budget either — deliver the
	// next coarser preset (deadline off: this is the last resort, and
	// the coarser run is the one sized to succeed) instead of nothing.
	if timeouts == attempts && cfg.DegradeOnTimeout {
		if dcfg, dacc, ok := cfg.degraded(); ok {
			dctx := resilience.WithScope(ctx, opts.Injector,
				fmt.Sprintf("case/%s/degraded/", spec.Name))
			var res *CaseResult
			err := resilience.Protect(func() error {
				var err error
				res, err = runCaseCached(dctx, spec, dcfg, pool, opts.Cache)
				return err
			})
			if err == nil {
				// Marked after caching: the cache entry under the
				// degraded config's own key stays a clean result any
				// explicitly-coarse run may reuse.
				res.Degraded = dacc.String()
				rep.Attempts = append(rep.Attempts, AttemptReport{Outcome: "degraded-ok"})
				rep.Degraded = dacc.String()
				opts.Report.recordCase(rep)
				return res, nil
			}
			rep.Attempts = append(rep.Attempts, AttemptReport{
				Outcome: resilience.ClassifyKind(err), Error: err.Error()})
			lastErr = err
		}
	}

	ce := &resilience.CaseError{
		Case: spec.Name, Attempts: len(rep.Attempts),
		Kind: resilience.ClassifyKind(lastErr), Err: lastErr,
	}
	rep.Err = ce.Error()
	opts.Report.recordCase(rep)
	return nil, ce
}

// runCaseCached wraps RunCaseOn with the optional disk cache: hits
// skip the computation entirely, misses are stored after computing.
// Integrity-corrupt entries are quarantined inside Cache.Get; an
// entry that verifies but no longer decodes (a legacy pre-checksum
// entry gone bad, a format drift) is quarantined here — either way
// the case is recomputed, never aborted.
func runCaseCached(ctx context.Context, spec CaseSpec, cfg Config, pool *runner.Pool, cache *runner.Cache) (*CaseResult, error) {
	var key string
	if cache != nil {
		var err error
		key, err = CaseCacheKey(spec, cfg)
		if err != nil {
			return nil, err
		}
		if data, ok, err := cache.Get(key); err != nil {
			return nil, err
		} else if ok {
			var res CaseResult
			if err := json.Unmarshal(data, &res); err == nil {
				return &res, nil
			}
			cache.Quarantine(key)
		}
	}
	res, err := RunCaseOn(ctx, spec, cfg, pool)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		data, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("experiment: encode case %q for cache: %w", spec.Name, err)
		}
		if err := cache.Put(key, data); err != nil {
			return nil, err
		}
	}
	return res, nil
}
