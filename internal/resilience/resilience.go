// Package resilience is the fault-tolerance substrate of the
// experiment pipeline: panic supervision that converts crashes into
// typed errors, deterministic retry backoff, and a deterministic fault
// injector for chaos testing. The paper's subject is robustness of
// schedules under uncertainty; this package gives the pipeline itself
// the same operational contract — complete as much work as possible
// under adverse conditions, and report honestly what failed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/seeds"
)

// PanicError is a recovered panic promoted to an error: the panic
// value plus the stack of the panicking goroutine, captured at the
// recovery site. A supervised pool job that panics fails its batch
// with a PanicError instead of crashing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError (with stack)
// instead of letting it unwind past the caller. The happy path costs
// one deferred function call.
func Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// IsPanic reports whether err wraps a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// CaseError is the typed failure of one experimental case after
// supervision gave up: which case, how many attempts were made, the
// kind of the final failure, and the underlying error. The stack of a
// panicking attempt travels inside Err (a *PanicError).
type CaseError struct {
	Case     string
	Attempts int
	Kind     string // "panic", "timeout", or "error"
	Err      error
}

func (e *CaseError) Error() string {
	return fmt.Sprintf("case %q failed (%s) after %d attempt(s): %v",
		e.Case, e.Kind, e.Attempts, e.Err)
}

func (e *CaseError) Unwrap() error { return e.Err }

// ClassifyKind names the failure class of an attempt error: "panic"
// for recovered panics, "timeout" for deadline expiry, "error"
// otherwise. The caller is responsible for distinguishing its own
// deadline from an enclosing cancellation before calling this.
func ClassifyKind(err error) string {
	switch {
	case IsPanic(err):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// Backoff's first delay and its cap.
const (
	baseDelay = 50 * time.Millisecond
	maxDelay  = 2 * time.Second
)

// Backoff returns the delay before re-attempt number attempt (1-based:
// the delay after the first failure is Backoff(1, …)). The delay
// doubles per attempt from baseDelay up to maxDelay, with a deterministic
// jitter in [0.5, 1.0]× derived from (seed, label, attempt) — seeded
// jitter keeps retry storms decorrelated across cases while leaving
// runs reproducible.
func Backoff(attempt int, seed int64, label string) time.Duration {
	d := baseDelay
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	// Deterministic jitter in [0.5, 1.0]: a hash of the identity, not
	// the wall clock, so two runs of the same sweep back off alike.
	h := uint64(seeds.Derive(seed, fmt.Sprintf("backoff/%s/%d", label, attempt)))
	frac := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	return time.Duration((0.5 + 0.5*frac) * float64(d))
}

// Sleep blocks for d or until ctx is cancelled, returning ctx.Err() in
// the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
