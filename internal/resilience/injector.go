package resilience

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/seeds"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindPanic makes Hit panic at matched sites — exercising the
	// supervision path exactly like a real bug would.
	KindPanic Kind = iota + 1
	// KindDelay makes Hit sleep at matched sites — driving timeouts.
	KindDelay
	// KindError makes Hit return a plain error at matched sites.
	KindError
	// KindCorrupt makes Corrupt flip a byte of the payload at matched
	// sites — driving the cache-integrity path.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one injection rule. A fault fires at every site of which
// Site is a substring ("" matches every site), so a given site either
// always or never fires, independent of workers and scheduling.
type Fault struct {
	Site  string        // substring matched against site names; "" = all
	Kind  Kind          //
	Delay time.Duration // sleep duration for KindDelay (default 50ms)
}

// Event records one fired fault.
type Event struct {
	Site string `json:"site"`
	Kind string `json:"kind"`
}

// Injector injects faults at named sites. The zero/nil injector is
// inert: every method is safe on a nil receiver and does nothing, so
// production paths carry at most a nil check.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	events []Event // guarded by mu
}

// NewInjector builds an injector for the given faults.
func NewInjector(faults ...Fault) *Injector {
	return &Injector{faults: faults}
}

// match decides — and records — whether fault f (index i) fires at
// site. Caller holds no lock.
func (in *Injector) match(i int, site string) bool {
	f := in.faults[i]
	if f.Site != "" && !strings.Contains(site, f.Site) {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.events = append(in.events, Event{Site: site, Kind: f.Kind.String()})
	return true
}

// Hit is the panic/delay/error injection point: call it with the
// current site name at any supervised step. It sleeps for each matched
// delay fault, then returns an error or panics if an error/panic fault
// matches. A nil injector returns nil immediately.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	for i, f := range in.faults {
		switch f.Kind {
		case KindDelay:
			if in.match(i, site) {
				d := f.Delay
				if d <= 0 {
					d = 50 * time.Millisecond
				}
				time.Sleep(d)
			}
		case KindPanic:
			if in.match(i, site) {
				panic(fmt.Sprintf("resilience: injected panic at %s", site))
			}
		case KindError:
			if in.match(i, site) {
				return fmt.Errorf("resilience: injected error at %s", site)
			}
		}
	}
	return nil
}

// Corrupt is the data-corruption injection point: when a corrupt fault
// matches the site, one byte of data (a position derived from the site
// name in the first len-80 bytes, keeping injected corruption inside
// the payload rather than its trailer) is flipped in a copy; otherwise
// data is returned unchanged. A nil injector returns data unchanged.
func (in *Injector) Corrupt(site string, data []byte) []byte {
	if in == nil || len(data) == 0 {
		return data
	}
	for i, f := range in.faults {
		if f.Kind != KindCorrupt || !in.match(i, site) {
			continue
		}
		span := len(data) - 80
		if span <= 0 {
			span = len(data)
		}
		pos := int(uint64(seeds.Derive(0, "corrupt/"+site)) % uint64(span))
		mangled := append([]byte(nil), data...)
		mangled[pos] ^= 0xFF
		return mangled
	}
	return data
}

// Events returns a copy of the fired-fault log, in firing order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Scope carries an injector plus a site-name prefix through a context,
// so nested layers compose full site names ("case/<name>/attempt0/" +
// "eval/3") without threading parameters through every signature.
type Scope struct {
	inj    *Injector
	prefix string
}

// Hit fires the scope's injector at prefix+suffix. Safe on a nil
// scope (no-op), so callers hoist the ScopeFrom lookup and guard only
// to avoid the string concatenation.
func (s *Scope) Hit(suffix string) error {
	if s == nil {
		return nil
	}
	return s.inj.Hit(s.prefix + suffix)
}

type scopeKey struct{}

// WithScope attaches an injection scope to ctx; a nil injector
// returns ctx unchanged, keeping fault-free runs free of the context
// value entirely.
func WithScope(ctx context.Context, inj *Injector, prefix string) context.Context {
	if inj == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, &Scope{inj: inj, prefix: prefix})
}

// ScopeFrom returns the attached scope, or nil.
func ScopeFrom(ctx context.Context) *Scope {
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}
