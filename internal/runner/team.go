package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines of the process doing evaluation work: a
// pool worker while it runs a job, and every running Team helper. It is
// the one processor budget of the process; the count changes no result,
// only how many goroutines share a piece of work.
var busy atomic.Int32

// take adds one to n and reports true if n stays at or below limit.
func take(n *atomic.Int32, limit int32) bool {
	for {
		v := n.Load()
		if v >= limit {
			return false
		}
		if n.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// Team fans one piece of work out to helper goroutines on idle
// processors. Its caller works too and never blocks: it is counted in
// the team's limit but never in the processor budget — inside a pool
// job the pool counts it, and outside one the limit bounds it.
type Team struct {
	limit, procs int32
	size         atomic.Int32 // the caller and its running helpers
	wg           sync.WaitGroup
}

// NewTeam returns a team of at most limit goroutines, the caller
// included, and never more than GOMAXPROCS.
func NewTeam(limit int) *Team {
	procs := runtime.GOMAXPROCS(0)
	t := &Team{limit: int32(max(1, min(limit, procs))), procs: int32(procs)}
	t.size.Store(1)
	return t
}

// Grow starts fn on a helper goroutine if the team is below its limit
// and a processor is idle, and reports whether it did.
func (t *Team) Grow(fn func()) bool {
	if !take(&t.size, t.limit) {
		return false
	}
	if !take(&busy, t.procs) {
		t.size.Add(-1)
		return false
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer t.size.Add(-1)
		defer busy.Add(-1)
		fn()
	}()
	return true
}

// Crowded reports whether more goroutines do evaluation work than there
// are processors. A helper checks it before each unit of work and
// returns once it holds.
func (t *Team) Crowded() bool { return busy.Load() > t.procs }

// Wait waits for every helper to return.
func (t *Team) Wait() { t.wg.Wait() }
