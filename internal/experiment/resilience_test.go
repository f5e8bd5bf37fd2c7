package experiment

// Chaos tests for the supervised sweep: deterministic injected panics,
// delays (→ timeouts), and cache corruption must leave a sweep that
// completes, reports every fault, and delivers byte-identical results
// for every non-faulted case at any worker count.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/runner"
)

func chaosConfig() Config {
	cfg := DefaultConfig()
	cfg.Schedules = 8
	cfg.MCRealizations = 500
	cfg.EvalAccuracy = "grid=32"
	cfg.Seed = 7
	return cfg
}

func chaosSpecs() []CaseSpec {
	return []CaseSpec{
		{Name: "chaos-a", Family: CholeskyFamily, N: 10, M: 3, UL: 1.01, Seed: 21},
		{Name: "chaos-b", Family: RandomFamily, N: 12, M: 3, UL: 1.1, Seed: 22},
		{Name: "chaos-c", Family: GaussElimFamily, N: 15, M: 4, UL: 1.1, Seed: 23},
		{Name: "chaos-d", Family: RandomFamily, N: 20, M: 4, UL: 1.01, Seed: 24},
	}
}

func encodeResults(t *testing.T, results []*CaseResult) [][]byte {
	t.Helper()
	out := make([][]byte, len(results))
	for i, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func findCaseReport(d RunReportData, name string) (CaseReport, bool) {
	for _, c := range d.Cases {
		if c.Case == name {
			return c, true
		}
	}
	return CaseReport{}, false
}

// The acceptance chaos test: one panic, one timeout, one corrupted
// cache entry — the sweep completes at workers 1 and 8, the failure
// report enumerates every fault with attempts and outcomes, all case
// results (faulted cases recover via clean re-attempts) are
// byte-identical to a fault-free run, and the corrupted entry is
// quarantined and recomputed instead of aborting the resume.
func TestChaosSweepCompletesAndMatchesFaultFree(t *testing.T) {
	specs := chaosSpecs()
	cfg := chaosConfig()

	// Fault-free reference (results are worker-count-independent, so
	// one reference serves both chaos worker counts).
	refResults, err := RunCases(context.Background(), specs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := encodeResults(t, refResults)

	corruptKey, err := CaseCacheKey(specs[2], cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		// Pre-corrupt chaos-c's cache entry (and only chaos-c — the
		// other cases must compute fresh so the injected faults hit
		// their sites): an interrupted sweep wrote it through a
		// corrupting injector, simulating disk rot before the resume.
		cache, err := runner.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		seedInj := resilience.NewInjector(resilience.Fault{Site: corruptKey, Kind: resilience.KindCorrupt})
		cache.SetCorruptor(seedInj.Corrupt)
		if _, err := RunCases(context.Background(), specs[2:3], cfg, RunOptions{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if got := len(seedInj.Events()); got != 1 {
			t.Fatalf("corruption injector fired %d times, want 1", got)
		}
		cache.SetCorruptor(nil)

		ccfg := cfg
		ccfg.Workers = workers
		// The deadline must be generous enough that only the injected
		// delay — never a legitimately computing case on a loaded or
		// race-instrumented machine — trips it.
		ccfg.CaseTimeout = 5 * time.Second
		ccfg.MaxRetries = 2
		inj := resilience.NewInjector(
			// Panic in the middle of chaos-a's first evaluation fan-out.
			resilience.Fault{Site: "case/chaos-a/attempt0/eval/3", Kind: resilience.KindPanic},
			// Stall chaos-b's first attempt past the case deadline.
			resilience.Fault{Site: "case/chaos-b/attempt0/build", Kind: resilience.KindDelay, Delay: 6 * time.Second},
			// Plain error from a heuristic job on chaos-d's first attempt.
			resilience.Fault{Site: "case/chaos-d/attempt0/heur/HEFT", Kind: resilience.KindError},
		)
		report := NewRunReport()
		report.AttachCache(cache)
		report.AttachInjector(inj)
		pool := runner.NewPool(workers)
		results, err := RunCases(context.Background(), specs, ccfg, RunOptions{
			Pool: pool, Cache: cache, Injector: inj, Report: report,
		})
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: chaos sweep failed: %v", workers, err)
		}

		// Every case — faulted ones via clean re-attempts, the
		// corrupted one via quarantine + recompute — matches the
		// fault-free bytes.
		got := encodeResults(t, results)
		for i := range specs {
			if !bytes.Equal(got[i], ref[i]) {
				t.Errorf("workers=%d: case %s differs from fault-free run", workers, specs[i].Name)
			}
		}

		d := report.Snapshot()
		if d.CasesTotal != len(specs) {
			t.Errorf("workers=%d: report counts %d cases, want %d", workers, d.CasesTotal, len(specs))
		}
		wantOutcomes := map[string]string{"chaos-a": "panic", "chaos-b": "timeout", "chaos-d": "error"}
		for name, kind := range wantOutcomes {
			cr, ok := findCaseReport(d, name)
			if !ok {
				t.Errorf("workers=%d: report lacks case %s", workers, name)
				continue
			}
			// The first attempt must fail with the injected kind and the
			// last must succeed. Intermediate attempts — if any — can only
			// be genuine timeouts (a loaded machine may push a clean retry
			// past the deadline); any other outcome is a real bug.
			if len(cr.Attempts) < 2 || cr.Attempts[0].Outcome != kind || cr.Attempts[len(cr.Attempts)-1].Outcome != "ok" {
				t.Errorf("workers=%d: case %s attempts %+v, want [%s ... ok]", workers, name, cr.Attempts, kind)
			}
			for _, a := range cr.Attempts[1 : len(cr.Attempts)-1] {
				if a.Outcome != "timeout" {
					t.Errorf("workers=%d: case %s unexpected intermediate attempt %+v", workers, name, a)
				}
			}
			if cr.Failed() {
				t.Errorf("workers=%d: recovered case %s marked failed", workers, name)
			}
		}
		if len(d.Injected) != 3 {
			t.Errorf("workers=%d: %d injected faults in report, want 3", workers, len(d.Injected))
		}
		// The resume consumed the corrupted entry: exactly one
		// quarantine + recompute, enumerated in the report.
		if len(d.Quarantines) != 1 || d.Quarantines[0].Key != corruptKey {
			t.Errorf("workers=%d: quarantines %+v, want exactly the corrupted key", workers, d.Quarantines)
		}
		// chaos-c (corruption) and chaos-a/b/d recovered: nothing in
		// the report may be a permanent failure.
		if n := len(d.Failures()); n != 0 {
			t.Errorf("workers=%d: %d permanent failures reported", workers, n)
		}

		// The recomputed chaos-c entry verifies on a fresh read.
		if _, ok, err := cache.Get(corruptKey); err != nil || !ok {
			t.Errorf("workers=%d: recomputed entry not served: ok=%v err=%v", workers, ok, err)
		}
	}
}

// A case whose every attempt times out fails with a typed timeout
// CaseError after its last retry, stores nothing under its cache key,
// and leaves every attempt in the report.
func TestTimeoutOnEveryAttemptFailsTyped(t *testing.T) {
	spec := CaseSpec{Name: "slow", Family: RandomFamily, N: 12, M: 3, UL: 1.1, Seed: 31}
	cfg := chaosConfig()
	cfg.EvalAccuracy = "fast"
	cfg.CaseTimeout = 300 * time.Millisecond
	cfg.MaxRetries = 1
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The delay matches every site of every attempt; the first, the
	// build, already outlasts the deadline.
	inj := resilience.NewInjector(resilience.Fault{
		Site: "case/slow/attempt", Kind: resilience.KindDelay, Delay: 500 * time.Millisecond})
	report := NewRunReport()
	_, err = RunCases(context.Background(), []CaseSpec{spec}, cfg, RunOptions{
		Cache: cache, Injector: inj, Report: report,
	})
	var ce *resilience.CaseError
	if !errors.As(err, &ce) {
		t.Fatalf("sweep error %T %v, want *resilience.CaseError", err, err)
	}
	if ce.Case != "slow" || ce.Kind != "timeout" || ce.Attempts != 2 {
		t.Errorf("CaseError %+v, want slow/timeout/2 attempts", ce)
	}

	key, err := CaseCacheKey(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cache.Get(key); ok {
		t.Error("timed-out case's key holds an entry")
	}

	d := report.Snapshot()
	fails := d.Failures()
	if len(fails) != 1 || fails[0].Case != "slow" {
		t.Fatalf("failures %+v, want exactly slow", fails)
	}
	if a := fails[0].Attempts; len(a) != 2 || a[0].Outcome != "timeout" || a[1].Outcome != "timeout" {
		t.Errorf("attempts %+v, want [timeout timeout]", a)
	}
}

// A case that fails every attempt either aborts the sweep with a
// typed CaseError (default) or — under KeepGoing — leaves a nil slot
// and lets its siblings finish.
func TestPermanentFailureTypedAndKeepGoing(t *testing.T) {
	specs := chaosSpecs()[:2] // chaos-a (healthy), chaos-b (doomed)
	cfg := chaosConfig()
	cfg.MaxRetries = 1
	doom := func() *resilience.Injector {
		return resilience.NewInjector(resilience.Fault{
			Site: "case/chaos-b/", Kind: resilience.KindError})
	}

	_, err := RunCases(context.Background(), specs, cfg, RunOptions{Injector: doom()})
	var ce *resilience.CaseError
	if !errors.As(err, &ce) {
		t.Fatalf("sweep error %T %v, want *resilience.CaseError", err, err)
	}
	if ce.Case != "chaos-b" || ce.Kind != "error" || ce.Attempts != 2 {
		t.Errorf("CaseError %+v, want chaos-b/error/2 attempts", ce)
	}

	report := NewRunReport()
	results, err := RunCases(context.Background(), specs, cfg, RunOptions{
		Injector: doom(), Report: report, KeepGoing: true,
	})
	if err != nil {
		t.Fatalf("KeepGoing sweep failed: %v", err)
	}
	if results[0] == nil || results[1] != nil {
		t.Fatalf("KeepGoing results [%v, %v], want [result, nil]", results[0] != nil, results[1] != nil)
	}
	d := report.Snapshot()
	fails := d.Failures()
	if len(fails) != 1 || fails[0].Case != "chaos-b" {
		t.Fatalf("failures %+v, want exactly chaos-b", fails)
	}
	if !strings.Contains(fails[0].Err, "injected error") {
		t.Errorf("failure cause %q lacks the root error", fails[0].Err)
	}

	// Aggregation under KeepGoing skips the failed case.
	agg, err := AggregateCases(context.Background(), specs, cfg, RunOptions{
		Injector: doom(), KeepGoing: true,
	})
	if err != nil {
		t.Fatalf("AggregateCases under KeepGoing: %v", err)
	}
	if len(agg.Cases) != 1 || agg.Cases[0].Spec.Name != "chaos-a" {
		t.Errorf("aggregated %d cases, want only chaos-a", len(agg.Cases))
	}
}

// A panicking case without retries must surface the panic as a typed
// error carrying the stack — never crash the process.
func TestPanicWithoutRetriesIsTypedError(t *testing.T) {
	specs := chaosSpecs()[:1]
	inj := resilience.NewInjector(resilience.Fault{
		Site: "case/chaos-a/attempt0/eval/0", Kind: resilience.KindPanic})
	_, err := RunCases(context.Background(), specs, chaosConfig(), RunOptions{Injector: inj})
	var ce *resilience.CaseError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T %v, want *resilience.CaseError", err, err)
	}
	if ce.Kind != "panic" {
		t.Errorf("kind %q, want panic", ce.Kind)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Error("CaseError does not carry the panic stack")
	}
}
