package makespan

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/robustness"
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
//     (class, volume) communications hundreds of times; the reference
//     evaluators re-discretized them for every schedule.
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
// is materialized lazily on first use by a density consumer (Classic,
// Dodin): moments-only consumers — Spelde, Slacks — never pay for it.
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

// GridSize returns the density grid size of the cache's
// discretizations.
func (c *EvalCache) GridSize() int { return c.acc.GridSize }

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

// zeroCommArc is THE skip rule of the evaluation layer, shared by the
// compiled model and the reference evaluators: a disjunctive arc's
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
// exactly once, everything the reference evaluators repeated per
// method call (and robustness.fillSlack repeated once more): schedule
// validation, the disjunctive overlay (flat CSR via
// schedule.CompileDisjunctive — no map-graph clones), and the
// resolution of every task duration and every disjunctive arc's
// communication to a cached discretized variable plus exact moments.
//
// The three consumers then run over flat arrays:
//
//   - Classic: numeric density propagation, bit-identical to
//     ReferenceEvaluateClassic, with all intermediate densities drawn
//     from a recycling workspace (stochastic.Ops) and completion
//     densities released by successor refcount — live memory is
//     bounded by the schedule's frontier width, not n;
//   - Spelde: Clark moment propagation, equal to
//     ReferenceEvaluateSpelde;
//   - Slacks: the §IV mean-duration slack vector, equal to the
//     disjunctive-graph path robustness.FromDistribution used to
//     rebuild per call.
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
// assignment consistency, disjunctive acyclicity).
func (c *EvalCache) Model(s *schedule.Schedule) (*EvalModel, error) {
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
// at joins — and returns the makespan distribution. The result is
// bit-for-bit identical to ReferenceEvaluateClassic at the cache's
// grid size (the equivalence harness enforces this across all workload
// families): every operator gets the reference's operands, in the
// reference's adjacency and sink order, with the densities flowing
// through a recycling workspace instead of fresh allocations. A task's
// communication-arc arrivals are computed before the max chain that
// consumes them, two at a time (see arrivals).
func (m *EvalModel) Classic() *stochastic.Numeric {
	acc := m.cache.acc
	grid := acc.GridSize
	ops := getOps()
	defer putOps(ops)
	d := m.d
	n := d.N
	completion := make([]*stochastic.Numeric, n)
	// Successor refcounts: a completion density is consumed once per
	// disjunctive successor, plus once by the final sink maximum. When
	// the count hits zero its buffer returns to the workspace.
	refs := make([]int32, n)
	maxPreds := int32(0)
	for t := 0; t < n; t++ {
		refs[t] = d.SuccStart[t+1] - d.SuccStart[t]
		maxPreds = max(maxPreds, d.PredStart[t+1]-d.PredStart[t])
	}
	for _, s := range d.Sinks {
		refs[s]++
	}
	release := func(p int32) {
		refs[p]--
		if refs[p] == 0 {
			ops.Recycle(completion[p])
			completion[p] = nil
		}
	}
	arrivals := make([]*stochastic.Numeric, maxPreds)
	zero := stochastic.NewPoint(0)
	for _, t := range d.Order {
		lo, hi := d.PredStart[t], d.PredStart[t+1]
		arr := arrivals[:hi-lo]
		m.arrivals(ops, arr, lo, hi, completion)
		start := zero
		startOwned := false
		for k := lo; k < hi; k++ {
			p := d.PredTask[k]
			arrival, arrivalOwned := arr[k-lo], true
			if arrival == nil {
				arrival, arrivalOwned = completion[p], false
			}
			next := ops.MaxAcc(start, arrival, acc)
			if startOwned {
				ops.Recycle(start)
			}
			if arrivalOwned {
				ops.Recycle(arrival)
				arr[k-lo] = nil
			}
			release(p)
			start = next
			startOwned = true
		}
		completion[t] = ops.AddAcc(start, m.dur[t].numeric(grid), acc)
		if startOwned {
			ops.Recycle(start)
		}
	}
	makespan := zero
	owned := false
	for _, s := range d.Sinks {
		next := ops.MaxAcc(makespan, completion[s], acc)
		if owned {
			ops.Recycle(makespan)
		}
		release(int32(s))
		makespan = next
		owned = true
	}
	// The result keeps its buffer: it was removed from the free list
	// and is never recycled, so pooling the workspace stays safe.
	return makespan
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

// Spelde propagates (µ, σ²) through the disjunctive order with Clark's
// formulas, equal to ReferenceEvaluateSpelde (same moment values, same
// accumulation order).
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
// overlay with every duration and communication at its mean — the
// quantity robustness.fillSlack computed by rebuilding the disjunctive
// graph and re-deriving every mean per call. Values are identical to
// that path: top/bottom levels are pure float maxima, which are
// accumulation-order independent.
func (m *EvalModel) Slacks() []float64 {
	slacks, _ := m.slacksCP()
	return slacks
}

// slacksCP computes the slack vector together with the mean-duration
// critical-path length it is defined against (cp = max_t tl(t)+bl(t)).
func (m *EvalModel) slacksCP() ([]float64, float64) {
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
	return out, cp
}

// Metrics evaluates the full eight-metric robustness vector of the
// model's schedule: the five distribution metrics from the classical
// makespan density and the slack metrics from the compiled slack
// vector. This is the per-schedule unit of work of the paper's core
// experiment, and the call RunCaseOn fans out over its worker pool.
func (m *EvalModel) Metrics(p robustness.Params) robustness.Metrics {
	return robustness.FromDistributionSlacks(m.Classic(), m.Slacks(), p)
}

// MetricsFromSamples evaluates the metric vector with the distribution
// metrics taken from Monte-Carlo samples and the slack metrics from
// the compiled slack vector — the model-holding form of
// robustness.FromSamples, without the per-call disjunctive rebuild.
func (m *EvalModel) MetricsFromSamples(emp *stochastic.Empirical, p robustness.Params) robustness.Metrics {
	return robustness.FromSamplesSlacks(emp, m.Slacks(), p)
}

// MetricsFromKernelStats is MetricsFromSamples for the realization
// kernel's streaming accumulator — the model-holding form of
// robustness.FromKernelStats.
func (m *EvalModel) MetricsFromKernelStats(st *schedule.MCStats, p robustness.Params) robustness.Metrics {
	return robustness.FromKernelStatsSlacks(st, m.Slacks(), p)
}

// SlackIdentity runs the paper's §V consistency test on the compiled
// slack vector — a zero-slack (critical-path) task must exist — and
// returns the critical-path length on mean durations. It is the
// model-holding form of robustness.VerifySlackIdentity, computed from
// EvalModel.Slacks instead of a rebuilt map-based disjunctive graph.
func (m *EvalModel) SlackIdentity() (float64, error) {
	slacks, cp := m.slacksCP()
	min := math.Inf(1)
	for _, v := range slacks {
		if v < min {
			min = v
		}
	}
	if min > 1e-6 {
		return 0, fmt.Errorf("makespan: no zero-slack task (min slack %g)", min)
	}
	return cp, nil
}
