package makespan

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// EvalCache is the per-scenario half of the compiled evaluation layer:
// everything metric evaluation needs that depends only on the scenario
// — not on any particular schedule — built once per case and shared by
// every schedule evaluated under it.
//
//   - the graph's sorted CSR (the adjacency order the evaluators'
//     floating-point accumulations are specified against),
//   - the platform's communication classes (PR 4's (lat, τ) pair
//     dedup),
//   - discretized duration random variables and first two moments,
//     keyed by the (min, ul) pair that fully determines a duration
//     distribution for a fixed scenario. A random-schedule case
//     re-evaluates the same (task, proc) durations and the same
//     (class, volume) communications hundreds of times, and
//     discretizes each once per case.
//
// The cache is safe for concurrent use: RunCaseOn evaluates the
// schedules of a case in parallel against one cache. Custom DurFn
// families must be pure functions of (min, ul) — the same requirement
// the rest of the pipeline (heuristic cost models, the MC kernel)
// already places on them.
type EvalCache struct {
	scen *platform.Scenario
	acc  stochastic.EvalAccuracy // canonical

	csrOnce sync.Once
	csr     *dag.CSR
	cc      platform.CommClasses

	mu  sync.RWMutex
	rvs map[distKey]*cacheEntry
}

// distKey identifies a duration distribution of the scenario: its
// minimum value and uncertainty level.
type distKey struct {
	min, ul float64
}

// cacheEntry is one duration distribution of the scenario with its
// exact moments and skip classification. The 64-point discretization
// is materialized lazily on first use by the density consumer,
// Classic: moments-only consumers — Spelde, Slacks — never pay for it.
type cacheEntry struct {
	d        stochastic.Dist
	mean     float64
	variance float64
	skip     bool // zeroCommArc(d): drops out of evaluation as a comm arc

	once sync.Once
	rv   *stochastic.Numeric
}

// numeric returns the entry's discretized variable, computing it once.
func (e *cacheEntry) numeric(grid int) *stochastic.Numeric {
	e.once.Do(func() { e.rv = stochastic.FromDist(e.d, grid) })
	return e.rv
}

// maxCacheEntries bounds the memoized discretizations (~700 B each).
// Past the bound the cache computes without storing — still correct,
// no longer amortized — so a pathological sweep cannot hold gigabytes
// of densities alive.
const maxCacheEntries = 1 << 18

// NewEvalCache builds the shared evaluation state for one scenario at
// the reference resampling policy. gridSize <= 0 selects the paper's
// 64-point densities.
func NewEvalCache(scen *platform.Scenario, gridSize int) *EvalCache {
	return NewEvalCacheAccuracy(scen, stochastic.EvalAccuracy{GridSize: gridSize})
}

// NewEvalCacheAccuracy builds the shared evaluation state for one
// scenario under an explicit accuracy contract. Every density the cache
// memoizes and every operator its models run uses acc, so two caches at
// different accuracies never share discretizations.
func NewEvalCacheAccuracy(scen *platform.Scenario, acc stochastic.EvalAccuracy) *EvalCache {
	return &EvalCache{
		scen: scen,
		acc:  acc.Canon(),
		rvs:  make(map[distKey]*cacheEntry),
	}
}

// Scenario returns the scenario the cache was built for.
func (c *EvalCache) Scenario() *platform.Scenario { return c.scen }

// Accuracy returns the cache's evaluation accuracy contract.
func (c *EvalCache) Accuracy() stochastic.EvalAccuracy { return c.acc }

// flat returns the lazily built scenario-graph CSR and comm classes.
func (c *EvalCache) flat() (*dag.CSR, platform.CommClasses) {
	c.csrOnce.Do(func() {
		c.csr = c.scen.G.SortedCSR()
		c.cc = c.scen.P.CommClasses()
	})
	return c.csr, c.cc
}

// entry returns the discretized variable and moments of the duration
// distribution with the given (min, ul), memoizing up to
// maxCacheEntries.
func (c *EvalCache) entry(min, ul float64) *cacheEntry {
	key := distKey{min, ul}
	c.mu.RLock()
	e := c.rvs[key]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	// Compute outside the lock: a racing duplicate is deterministic
	// (identical inputs give identical bits), so last-write-wins is
	// harmless.
	d := c.scen.DurDist(min, ul)
	e = &cacheEntry{
		d:        d,
		mean:     d.Mean(),
		variance: d.Variance(),
		skip:     zeroCommArc(d),
	}
	c.mu.Lock()
	if prev := c.rvs[key]; prev != nil {
		e = prev
	} else if len(c.rvs) < maxCacheEntries {
		c.rvs[key] = e
	}
	c.mu.Unlock()
	return e
}

// opsPool holds the evaluation workspaces of every cache, so a
// workspace's grown scratch and free list outlive the case that grew
// them. Sharing is safe across accuracies: no Ops result depends on
// which scratch or which recycled buffer it was computed in.
var opsPool = sync.Pool{New: func() any { return &stochastic.Ops{} }}

func getOps() *stochastic.Ops { return opsPool.Get().(*stochastic.Ops) }

func putOps(o *stochastic.Ops) { opsPool.Put(o) }

// zeroCommArc is THE skip rule of the evaluation layer, shared by every
// evaluator: a disjunctive arc's
// communication drops out of the evaluation exactly when its time is
// almost surely zero — a degenerate distribution at 0 (co-located
// tasks, pure sequencing arcs, and deterministic zero-min links).
//
// The historical rule skipped on minComm > 0 failing, which also
// dropped zero-minimum links whose distribution still carries mass
// (a zero-latency network under an additive DurFn family): the
// analytic evaluators silently diverged from the Monte-Carlo ground
// truth, which samples those arcs. Guarding on the distribution itself
// cannot drop a stochastic arc.
func zeroCommArc(d stochastic.Dist) bool {
	lo, hi := d.Support()
	return lo == 0 && hi == 0 //reprovet:allow floateq an arc is droppable only when its support is exactly {0} (the PR 5 zero-min-arc fix)
}

// EvalModel is the per-(scenario, schedule) compiled evaluation
// context — the tentpole of the evaluation layer. Building it performs,
// exactly once, everything the evaluators share: schedule validation,
// the disjunctive overlay (flat CSR via schedule.CompileDisjunctive —
// no map-graph clones), and the resolution of every task duration and
// every disjunctive arc's communication to a cached discretized
// variable plus exact moments.
//
// The consumers then run over flat arrays:
//
//   - Classic: numeric density propagation, with all intermediate
//     densities drawn from recycling workspaces (stochastic.Ops) and
//     completion densities released by successor refcount — live
//     memory is bounded by the schedule's frontier width, not n. Tasks
//     that do not precede one another may run on helper goroutines,
//     with the same bits at any worker count;
//   - Spelde: Clark moment propagation, equal to the same propagation
//     on the rebuilt map-based disjunctive graph;
//   - Slacks: the §IV mean-duration slack vector, equal to the longest
//     paths of the rebuilt map-based disjunctive graph.
//
// A model is cheap (O(n+e) plus cache lookups) and single-use-or-many:
// all methods are safe to call repeatedly and concurrently, since they
// share only immutable state.
type EvalModel struct {
	cache *EvalCache
	sched *schedule.Schedule
	d     *schedule.Disjunctive

	dur     []*cacheEntry // per task, on its assigned processor
	durMean []float64
	durVar  []float64

	comm     []*cacheEntry // per disjunctive arc; nil when zeroCommArc
	commMean []float64     // 0 for skipped arcs
	commVar  []float64
}

// Model compiles the evaluation context for one schedule. The schedule
// is validated exactly like Schedule.Validate (completeness,
// assignment consistency, disjunctive acyclicity), and the scenario's
// uncertainty levels by platform.Scenario.CheckLevels.
func (c *EvalCache) Model(s *schedule.Schedule) (*EvalModel, error) {
	if err := c.scen.CheckLevels(); err != nil {
		return nil, err
	}
	csr, cc := c.flat()
	d, err := s.CompileDisjunctive(csr)
	if err != nil {
		return nil, err
	}
	n := d.N
	arcs := len(d.PredTask)
	m := &EvalModel{
		cache:    c,
		sched:    s,
		d:        d,
		dur:      make([]*cacheEntry, n),
		durMean:  make([]float64, n),
		durVar:   make([]float64, n),
		comm:     make([]*cacheEntry, arcs),
		commMean: make([]float64, arcs),
		commVar:  make([]float64, arcs),
	}
	scen := c.scen
	for t := 0; t < n; t++ {
		proc := s.Proc[t]
		e := c.entry(scen.P.ETC[t][proc], scen.ULAt(dag.Task(t), proc))
		m.dur[t] = e
		m.durMean[t] = e.mean
		m.durVar[t] = e.variance
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			pi := s.Proc[d.PredTask[k]]
			if pi == proc {
				continue // co-located: exactly free, arc skipped
			}
			cls := cc.Class[pi*cc.M+proc]
			min := cc.Lat[cls] + d.PredVol[k]*cc.Tau[cls]
			e := c.entry(min, scen.UL)
			if e.skip {
				continue
			}
			m.comm[k] = e
			m.commMean[k] = e.mean
			m.commVar[k] = e.variance
		}
	}
	return m, nil
}

// Schedule returns the schedule the model was compiled for.
func (m *EvalModel) Schedule() *schedule.Schedule { return m.sched }

// Classic runs the classical algorithm — numeric densities propagated
// through the disjunctive order, convolution along arcs, CDF products
// at joins — and returns the makespan distribution. In disjunctive
// topological order, each task's start is the maximum, over its
// predecessors in sorted adjacency order, of their completions plus
// the arc's communication (skipped when zeroCommArc), and its
// completion adds its own duration; the makespan is the maximum over
// the sinks. All intermediate variables are treated as independent —
// exact for in-trees, an approximation otherwise (§II). The densities
// flow through a recycling workspace instead of fresh allocations, and
// a task's communication-arc arrivals are computed before the max
// chain that consumes them, two at a time (see arrivals). The
// equivalence harness pins the result's bits across all workload
// families.
//
// A task's density depends only on its predecessors' densities, so
// tasks that do not precede one another are evaluated from a ready
// queue by the caller and by helper goroutines, each on its own
// workspace. Every task keeps its operands and their operation order
// and the sink maximum runs on the caller after the last task, so the
// result is the same bits at any worker count. Helpers start only
// while a ready task is waiting, up to classicWidth workers, and only
// on idle processors (a runner.Team); a helper stops before its next
// task once the processors are crowded, and the caller never waits for
// a processor. Like opsPool, the team changes no result — a task's
// density is the same whichever goroutine computes it.
func (m *EvalModel) Classic() *stochastic.Numeric {
	rv, _ := m.classic(m.classicWidth())
	return rv
}

// classicWidth is Classic's worker cap: ⌊n / (2·depth)⌋, where depth is
// the number of tasks on the longest disjunctive path. With fewer than
// two tasks per level for each worker, on average, a helper mostly
// finds the queue empty, so deep schedules stay on the caller.
func (m *EvalModel) classicWidth() int {
	d := m.d
	if d.N == 0 {
		return 1
	}
	level := make([]int32, d.N) // tasks on the longest path ending at t
	depth := int32(0)
	for _, t := range d.Order {
		l := int32(0)
		for _, p := range d.PredRow(t) {
			l = max(l, level[p])
		}
		level[t] = l + 1
		depth = max(depth, l+1)
	}
	return max(1, d.N/(2*int(depth)))
}

// classicRun is one Classic evaluation, shared by its caller and
// helpers.
type classicRun struct {
	m          *EvalModel
	completion []*stochastic.Numeric
	// pending counts each task's unfinished disjunctive predecessors;
	// the worker that drops it to zero queues the task.
	pending []atomic.Int32
	// refs counts the consumers a completion density has left: one
	// per disjunctive successor, plus the final sink maximum. The
	// worker that drops it to zero recycles the buffer into its own
	// workspace.
	refs     []atomic.Int32
	ready    chan int32 // buffered to n: every task is sent exactly once
	finished atomic.Int32
	maxPreds int32
	zero     *stochastic.Numeric

	team    *runner.Team
	helpers atomic.Int32 // helpers started, for tests
}

// classic evaluates the makespan density with up to workers
// goroutines, the caller included, and reports how many helpers
// started. At one worker it starts none.
func (m *EvalModel) classic(workers int) (*stochastic.Numeric, int) {
	d := m.d
	n := d.N
	r := &classicRun{
		m:          m,
		completion: make([]*stochastic.Numeric, n),
		pending:    make([]atomic.Int32, n),
		refs:       make([]atomic.Int32, n),
		ready:      make(chan int32, n),
		zero:       stochastic.NewPoint(0),
		team:       runner.NewTeam(workers),
	}
	for t := 0; t < n; t++ {
		preds := d.PredStart[t+1] - d.PredStart[t]
		r.pending[t].Store(preds)
		r.refs[t].Store(d.SuccStart[t+1] - d.SuccStart[t])
		r.maxPreds = max(r.maxPreds, preds)
	}
	for _, s := range d.Sinks {
		r.refs[s].Add(1)
	}
	for _, t := range d.Order {
		if r.pending[t].Load() == 0 {
			r.ready <- int32(t)
		}
	}
	if n == 0 {
		close(r.ready)
	}

	ops := getOps()
	defer putOps(ops)
	arrivals := make([]*stochastic.Numeric, r.maxPreds)
	for t := range r.ready {
		r.spawn()
		r.task(ops, arrivals, t)
	}
	r.team.Wait()

	acc := m.cache.acc
	makespan := r.zero
	owned := false
	for _, s := range d.Sinks {
		next := ops.MaxAcc(makespan, r.completion[s], acc)
		if owned {
			ops.Recycle(makespan)
		}
		r.release(ops, int32(s))
		makespan = next
		owned = true
	}
	// The result keeps its buffer: it was removed from the free list
	// and is never recycled, so pooling the workspace stays safe.
	return makespan, int(r.helpers.Load())
}

// spawn starts a helper when a ready task is waiting and the team can
// grow.
func (r *classicRun) spawn() {
	if len(r.ready) > 0 && r.team.Grow(r.help) {
		r.helpers.Add(1)
	}
}

// help evaluates ready tasks on its own workspace until the queue is
// empty or closed, or until the processors are crowded.
func (r *classicRun) help() {
	ops := getOps()
	defer putOps(ops)
	arrivals := make([]*stochastic.Numeric, r.maxPreds)
	for !r.team.Crowded() {
		t, ok := r.next()
		if !ok {
			return
		}
		r.spawn()
		r.task(ops, arrivals, t)
	}
}

// next takes a ready task without waiting; ok is false when the queue
// is empty or closed.
func (r *classicRun) next() (t int32, ok bool) {
	select {
	case t, ok = <-r.ready:
		return t, ok
	default:
		return 0, false
	}
}

// task computes the completion density of t, whose predecessors have
// all finished, then queues the successors it was the last to wait
// for. The worker that finishes the last task closes the queue.
func (r *classicRun) task(ops *stochastic.Ops, arrivals []*stochastic.Numeric, t int32) {
	m, d := r.m, r.m.d
	acc := m.cache.acc
	lo, hi := d.PredStart[t], d.PredStart[t+1]
	arr := arrivals[:hi-lo]
	m.arrivals(ops, arr, lo, hi, r.completion)
	start := r.zero
	startOwned := false
	for k := lo; k < hi; k++ {
		p := d.PredTask[k]
		arrival, arrivalOwned := arr[k-lo], true
		if arrival == nil {
			arrival, arrivalOwned = r.completion[p], false
		}
		next := ops.MaxAcc(start, arrival, acc)
		if startOwned {
			ops.Recycle(start)
		}
		if arrivalOwned {
			ops.Recycle(arrival)
			arr[k-lo] = nil
		}
		r.release(ops, p)
		start = next
		startOwned = true
	}
	r.completion[t] = ops.AddAcc(start, m.dur[t].numeric(acc.GridSize), acc)
	if startOwned {
		ops.Recycle(start)
	}
	for _, s := range d.SuccTask[d.SuccStart[t]:d.SuccStart[t+1]] {
		if r.pending[s].Add(-1) == 0 {
			r.ready <- s
		}
	}
	if r.finished.Add(1) == int32(d.N) {
		close(r.ready)
	}
}

// release drops one consumer of p's completion density and recycles
// its buffer into ops after the last.
func (r *classicRun) release(ops *stochastic.Ops, p int32) {
	if r.refs[p].Add(-1) == 0 {
		ops.Recycle(r.completion[p])
		r.completion[p] = nil
	}
}

// arrivals fills arr[k-lo] with the arrival density completion ⊕ comm of
// every communication arc k in [lo, hi) and leaves nil for the arcs
// without one. The sums are independent of each other and of the max
// chain that consumes them, so they run two at a time through
// AddPairAcc, each bit-identical to its own AddAcc.
func (m *EvalModel) arrivals(ops *stochastic.Ops, arr []*stochastic.Numeric, lo, hi int32, completion []*stochastic.Numeric) {
	acc := m.cache.acc
	d := m.d
	operands := func(k int32) (*stochastic.Numeric, *stochastic.Numeric) {
		return completion[d.PredTask[k]], m.comm[k].numeric(acc.GridSize)
	}
	pending := int32(-1)
	for k := lo; k < hi; k++ {
		if m.comm[k] == nil {
			continue
		}
		if pending < 0 {
			pending = k
			continue
		}
		a1, b1 := operands(pending)
		a2, b2 := operands(k)
		arr[pending-lo], arr[k-lo] = ops.AddPairAcc(a1, b1, a2, b2, acc)
		pending = -1
	}
	if pending >= 0 {
		a, b := operands(pending)
		arr[pending-lo] = ops.AddAcc(a, b, acc)
	}
}

// Spelde propagates (µ, σ²) through the disjunctive order: sums add
// moments, maxima use Clark's normal approximation. This is the fast
// method of Ludwig, Möhring & Stork's study that the paper evaluates.
func (m *EvalModel) Spelde() SpeldeResult {
	d := m.d
	n := d.N
	mu := make([]float64, n)
	variance := make([]float64, n)
	for _, t := range d.Order {
		var sMu, sVar float64
		first := true
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			p := d.PredTask[k]
			aMu, aVar := mu[p], variance[p]
			if m.comm[k] != nil {
				aMu += m.commMean[k]
				aVar += m.commVar[k]
			}
			if first {
				sMu, sVar = aMu, aVar
				first = false
			} else {
				sMu, sVar = clarkMax(sMu, sVar, aMu, aVar)
			}
		}
		if first {
			sMu, sVar = 0, 0 // entry task starts at time 0
		}
		mu[t] = sMu + m.durMean[t]
		variance[t] = sVar + m.durVar[t]
	}
	var outMu, outVar float64
	firstSink := true
	for _, t := range d.Sinks {
		if firstSink {
			outMu, outVar = mu[t], variance[t]
			firstSink = false
		} else {
			outMu, outVar = clarkMax(outMu, outVar, mu[t], variance[t])
		}
	}
	return SpeldeResult{Mean: outMu, Std: math.Sqrt(outVar)}
}

// Slacks returns the per-task slack vector of §IV on the disjunctive
// overlay with every duration and communication at its mean:
// s_i = M − Bl(i) − Tl(i), where Tl(i) is the longest path from an
// entry task to i without i's duration, Bl(i) the longest path from i
// to an exit task with it, and M the longest entry-to-exit path.
func (m *EvalModel) Slacks() []float64 {
	d := m.d
	n := d.N
	tl := make([]float64, n)
	bl := make([]float64, n)
	for _, t := range d.Order {
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			p := d.PredTask[k]
			if cand := tl[p] + m.durMean[p] + m.commMean[k]; cand > tl[t] {
				tl[t] = cand
			}
		}
	}
	for i := range bl {
		bl[i] = m.durMean[i]
	}
	for i := n - 1; i >= 0; i-- {
		t := d.Order[i]
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			p := d.PredTask[k]
			if cand := m.durMean[p] + m.commMean[k] + bl[t]; cand > bl[p] {
				bl[p] = cand
			}
		}
	}
	var cp float64
	for t := 0; t < n; t++ {
		if v := tl[t] + bl[t]; v > cp {
			cp = v
		}
	}
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		s := cp - bl[t] - tl[t]
		if s < 0 {
			s = 0 // guard against rounding noise
		}
		out[t] = s
	}
	return out
}

// Metrics evaluates the full eight-metric robustness vector of the
// model's schedule: the six distribution metrics from the classical
// makespan density and the slack metrics from the compiled slack
// vector. This is the per-schedule unit of work of the paper's core
// experiment, and the call RunCaseOn fans out over its worker pool.
func (m *EvalModel) Metrics(p robustness.Params) robustness.Metrics {
	return robustness.FromDistributionSlacks(m.Classic(), m.Slacks(), p)
}
