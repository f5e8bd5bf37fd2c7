// Package runner provides the experiment orchestration substrate: a
// shared bounded worker pool that treats every schedule evaluation of
// every case as one job stream, the process's one processor budget
// that the pool and every Team's helpers share, a disk-backed result
// cache so interrupted sweeps resume instead of recomputing, and
// deterministic per-job seed derivation so results are byte-identical
// regardless of worker count or scheduling order.
package runner

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/resilience"
)

// Pool is a bounded worker pool. A single Pool is meant to be shared
// by every concurrently running case of a sweep: cases submit their
// per-schedule evaluation jobs into the same stream, so the pool stays
// saturated even while individual cases are in their serial phases.
//
// Jobs write their outputs into caller-owned, pre-indexed slots, which
// keeps results independent of the order in which workers pick jobs
// up.
type Pool struct {
	jobs    chan func()
	wg      sync.WaitGroup
	workers int

	closeOnce sync.Once
}

// NewPool starts a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS. A worker counts in the processor budget while it
// runs a job, so a Team inside the job grows only onto processors that
// no other worker holds.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func()), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				busy.Add(1)
				runSupervised(job)
				busy.Add(-1)
			}
		}()
	}
	return p
}

// runSupervised executes one job, absorbing a panic so the worker
// goroutine — and with it the pool's ability to make progress — always
// survives. Batch jobs convert their own panics into typed errors
// before this last-ditch recovery is reached; it exists for raw Submit
// jobs, whose panic would otherwise kill the worker and deadlock
// Close.
func runSupervised(job func()) {
	defer func() { _ = recover() }()
	job()
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Submit hands a job to the pool, blocking until a worker accepts it
// or ctx is cancelled. It returns ctx.Err() on cancellation and nil
// otherwise.
func (p *Pool) Submit(ctx context.Context, job func()) error {
	// A cancelled context wins even when a worker is also ready.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting jobs and waits for in-flight ones to finish.
// It is safe to call multiple times.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// Batch runs fn(0) … fn(n-1) on the pool and waits for all of them.
// Submission stops early when ctx is cancelled or any job fails;
// already-submitted jobs always drain. Jobs are supervised: a
// panicking fn fails its batch with a typed *resilience.PanicError
// (panic value plus stack) instead of crashing the process. The
// returned error is the recorded failure with the lowest index —
// deterministic, because submission is in index order, so every index
// below the failure that triggered the abort was submitted and ran.
// Pure cancellation returns ctx.Err().
func (p *Pool) Batch(ctx context.Context, n int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	var submitErr error
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		if err := p.Submit(ctx, func() {
			defer wg.Done()
			if errs[i] = resilience.Protect(func() error { return fn(i) }); errs[i] != nil {
				cancel() // don't submit jobs whose batch already failed
			}
		}); err != nil {
			wg.Done()
			submitErr = err
			break
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return submitErr
}
