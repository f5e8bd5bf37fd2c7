package resilience

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProtectConvertsPanicWithStack(t *testing.T) {
	err := Protect(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Protect returned %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value %v, want boom", pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("resilience")) {
		t.Error("PanicError carries no stack")
	}
	if !IsPanic(err) {
		t.Error("IsPanic misses a PanicError")
	}
	if !IsPanic(fmt.Errorf("wrapped: %w", err)) {
		t.Error("IsPanic misses a wrapped PanicError")
	}
	if err := Protect(func() error { return nil }); err != nil {
		t.Errorf("clean fn returned %v", err)
	}
	want := errors.New("plain")
	if err := Protect(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("plain error not passed through: %v", err)
	}
}

func TestClassifyKind(t *testing.T) {
	if k := ClassifyKind(Protect(func() error { panic(1) })); k != "panic" {
		t.Errorf("panic classified as %q", k)
	}
	if k := ClassifyKind(fmt.Errorf("x: %w", context.DeadlineExceeded)); k != "timeout" {
		t.Errorf("deadline classified as %q", k)
	}
	if k := ClassifyKind(errors.New("other")); k != "error" {
		t.Errorf("plain error classified as %q", k)
	}
}

func TestCaseErrorUnwraps(t *testing.T) {
	inner := Protect(func() error { panic("x") })
	ce := &CaseError{Case: "c", Attempts: 3, Kind: "panic", Err: inner}
	if !IsPanic(ce) {
		t.Error("CaseError does not unwrap to its PanicError")
	}
	for _, want := range []string{"c", "panic", "3"} {
		if !strings.Contains(ce.Error(), want) {
			t.Errorf("CaseError message %q lacks %q", ce.Error(), want)
		}
	}
}

func TestBackoffDeterministicBoundedGrowing(t *testing.T) {
	if a, b := Backoff(2, 7, "case-a"), Backoff(2, 7, "case-a"); a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := Backoff(2, 7, "case-a"), Backoff(2, 7, "case-b"); a == b {
		t.Error("different labels share jitter")
	}
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := Backoff(attempt, 1, "x")
		// Jitter spans [0.5, 1.0]× the exponential step.
		lo, hi := time.Duration(0), maxDelay
		if d < lo || d > hi {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax > maxDelay {
		t.Errorf("backoff exceeds cap: %v > %v", prevMax, maxDelay)
	}
	if base := Backoff(1, 1, "x"); base < baseDelay/2 || base > baseDelay {
		t.Errorf("first backoff %v outside [base/2, base]", base)
	}
}

func TestSleepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep returned %v", err)
	}
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("Sleep returned %v", err)
	}
}

func TestInjectorNilIsInert(t *testing.T) {
	var in *Injector
	if err := in.Hit("anything"); err != nil {
		t.Error("nil injector fired")
	}
	data := []byte("abc")
	if got := in.Corrupt("s", data); !bytes.Equal(got, data) {
		t.Error("nil injector corrupted data")
	}
	if in.Events() != nil {
		t.Error("nil injector has events")
	}
	var s *Scope
	if err := s.Hit("x"); err != nil {
		t.Error("nil scope fired")
	}
}

func TestInjectorExplicitRuleFiresOnce(t *testing.T) {
	in := NewInjector(1, Fault{Site: "case/a/attempt0/eval/3", Kind: KindPanic, Times: 1})
	if err := in.Hit("case/a/attempt0/eval/2"); err != nil {
		t.Fatal("non-matching site fired")
	}
	err := Protect(func() error { return in.Hit("case/a/attempt0/eval/3") })
	if !IsPanic(err) {
		t.Fatalf("matched panic site returned %v, want panic", err)
	}
	// Budget of 1 is spent: the same site no longer fires.
	if err := Protect(func() error { return in.Hit("case/a/attempt0/eval/3") }); err != nil {
		t.Fatalf("exhausted fault fired again: %v", err)
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Kind != "panic" || ev[0].Site != "case/a/attempt0/eval/3" {
		t.Errorf("event log %+v, want one panic event", ev)
	}
}

func TestInjectorErrorAndDelay(t *testing.T) {
	in := NewInjector(1,
		Fault{Site: "slow", Kind: KindDelay, Delay: 10 * time.Millisecond},
		Fault{Site: "bad", Kind: KindError},
	)
	start := time.Now()
	if err := in.Hit("step/slow/1"); err != nil {
		t.Fatalf("delay site returned %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("delay fault did not sleep")
	}
	if err := in.Hit("step/bad/1"); err == nil {
		t.Error("error fault returned nil")
	}
}

func TestInjectorRateDeterministicPerSite(t *testing.T) {
	in := NewInjector(42, Fault{Kind: KindError, Rate: 0.3})
	fired := map[string]bool{}
	n := 0
	for i := 0; i < 200; i++ {
		site := fmt.Sprintf("case/%d/eval", i)
		fired[site] = in.Hit(site) != nil
		if fired[site] {
			n++
		}
	}
	if n == 0 || n == 200 {
		t.Fatalf("rate 0.3 fired %d/200 sites", n)
	}
	// Re-visiting the same sites reproduces the exact decision set.
	again := NewInjector(42, Fault{Kind: KindError, Rate: 0.3})
	for site, want := range fired {
		if got := again.Hit(site) != nil; got != want {
			t.Fatalf("site %s decision changed across injectors", site)
		}
	}
	// A different seed draws a different decision set.
	other := NewInjector(43, Fault{Kind: KindError, Rate: 0.3})
	diff := 0
	for site, want := range fired {
		if (other.Hit(site) != nil) != want {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed does not influence rate decisions")
	}
}

func TestInjectorCorruptFlipsOneByteDeterministically(t *testing.T) {
	in := NewInjector(7, Fault{Site: "cache/put/k1", Kind: KindCorrupt, Times: 1})
	data := bytes.Repeat([]byte("0123456789"), 20)
	clean := in.Corrupt("cache/put/other", data)
	if !bytes.Equal(clean, data) {
		t.Fatal("non-matching site corrupted")
	}
	mangled := NewInjector(7, Fault{Site: "cache/put/k1", Kind: KindCorrupt}).Corrupt("cache/put/k1", data)
	if bytes.Equal(mangled, data) {
		t.Fatal("matching site not corrupted")
	}
	diff, diffAt := 0, -1
	for i := range data {
		if data[i] != mangled[i] {
			diff++
			diffAt = i
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes flipped, want 1", diff)
	}
	if diffAt >= len(data)-80 {
		t.Errorf("flip at %d lands in the %d-byte trailer zone", diffAt, 80)
	}
	again := NewInjector(7, Fault{Site: "cache/put/k1", Kind: KindCorrupt}).Corrupt("cache/put/k1", data)
	if !bytes.Equal(mangled, again) {
		t.Error("corruption not deterministic")
	}
}

func TestInjectorConcurrentBudget(t *testing.T) {
	in := NewInjector(1, Fault{Site: "hot", Kind: KindError, Times: 3})
	var hits int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if in.Hit("hot") != nil {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if hits != 3 {
		t.Errorf("budget 3 fired %d times under concurrency", hits)
	}
	if got := len(in.Events()); got != 3 {
		t.Errorf("event log has %d entries, want 3", got)
	}
}

func TestScopeComposesPrefix(t *testing.T) {
	in := NewInjector(1, Fault{Site: "case/x/attempt1/eval/2", Kind: KindError})
	ctx := WithScope(context.Background(), in, "case/x/attempt1/")
	s := ScopeFrom(ctx)
	if s == nil {
		t.Fatal("scope not attached")
	}
	if err := s.Hit("eval/1"); err != nil {
		t.Error("wrong suffix fired")
	}
	if err := s.Hit("eval/2"); err == nil {
		t.Error("composed site did not fire")
	}
	if WithScope(context.Background(), nil, "p") != context.Background() {
		t.Error("nil injector should not attach a scope")
	}
	if ScopeFrom(context.Background()) != nil {
		t.Error("empty context has a scope")
	}
}
