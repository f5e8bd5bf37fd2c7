package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// layer names what a span timed. Spans are recorded only by the
// benchmark, around its own calls into the program; the program itself
// carries no instrumentation.
type layer uint8

const (
	layerCase      layer = iota // root of a case: the goroutine that runs one case
	layerJob                    // root of one runner.Pool job
	layerWait                   // a case goroutine blocked in Pool.Batch (not busy)
	layerBuild                  // CaseSpec.BuildScenario / repro.NewScenario
	layerRandom                 // heuristics.RandomSchedule(s)
	layerBIL                    // the registered heuristics, by name
	layerHEFT                   //
	layerHBMCT                  //
	layerCompile                // EvalCache.Model: disjunctive compile of a schedule
	layerClassic                // EvalModel.Classic: the makespan density
	layerSlacks                 // EvalModel.Slacks
	layerMetrics                // robustness.FromDistributionSlacks
	layerMCCompile              // schedule.NewSimulator + Simulator.Compile
	layerMCSample               // RealizationKernel.Empirical
	layerAggregate              // stats.CorrMatrix/Pearson/AggregateMatrices
	layerDistance               // stats.KSAgainstEmpirical/CMArea
	layerCacheGet               // runner.Cache.Get plus decoding the hit
	layerCachePut               // runner.Cache.Put
	layerEncode                 // JSON encoding of case results and documents
	numLayers
)

var layerNames = [numLayers]string{
	"experiment.case", "runner.job", "runner.wait",
	"graphgen.build", "heuristics.random",
	"heuristics.bil", "heuristics.heft", "heuristics.hbmct",
	"schedule.compile", "makespan.classic", "makespan.slacks", "robustness.metrics",
	"schedule.mc_compile", "schedule.mc_sample",
	"stats.aggregate", "stats.distance",
	"runner.cache_get", "runner.cache_put", "experiment.encode",
}

// counter names a quantity counted where the work happens.
type counter uint8

const (
	countTasks        counter = iota // tasks of every built scenario
	countEdges                       // edges of every built scenario
	countRandom                      // random schedules drawn
	countRealizations                // Monte-Carlo realizations drawn
	countClassicTasks                // tasks covered by Classic calls
	countCacheGets
	countCacheHits
	countCacheGetBytes
	countCachePutBytes
	countEncodeBytes
	numCounters
)

// span is one timed interval, as offsets from the tracer's base time.
type span struct {
	layer      layer
	start, end time.Duration
}

// slot holds the spans one goroutine records for one job, case or the
// top level. Slots are allocated before the work starts and each is
// written by a single goroutine, so recording takes no locks. In a
// rooted slot the first span is the root and every later span is a
// child of it that ran after the previous one, so the root's self time
// is its duration minus the sum of the others.
//
// All methods accept a nil slot and do nothing, which lets one code
// path serve both the traced and the untraced run.
type slot struct {
	tr     *tracer
	rooted bool
	spans  []span
	counts [numCounters]int64
}

func (s *slot) begin(l layer) int {
	if s == nil {
		return 0
	}
	s.spans = append(s.spans, span{layer: l, start: time.Since(s.tr.base)})
	return len(s.spans) - 1
}

func (s *slot) end(i int) {
	if s == nil {
		return
	}
	s.spans[i].end = time.Since(s.tr.base)
}

// root opens the slot's root span; close it with end(0).
func (s *slot) root(l layer) {
	if s == nil {
		return
	}
	s.rooted = true
	s.begin(l)
}

func (s *slot) count(c counter, v int) {
	if s == nil {
		return
	}
	s.counts[c] += int64(v)
}

// caseTrace is the record of one case: the case goroutine's own slot
// and one slot per pool job, grouped by batch.
type caseTrace struct {
	self slot
	jobs [][]slot
}

// tracer records one traced repetition.
type tracer struct {
	base    time.Time
	workers int // pool size, for the idle fraction
	top     slot
	cases   []*caseTrace
}

func newTracer(workers int) *tracer {
	t := &tracer{base: time.Now(), workers: workers}
	t.top.tr = t
	return t
}

// topSlot is the slot of the goroutine that drives the repetition.
func (t *tracer) topSlot() *slot {
	if t == nil {
		return nil
	}
	return &t.top
}

// addCases allocates the traces of n cases. Only the driving goroutine
// calls it, before any of those cases start.
func (t *tracer) addCases(n int) []*caseTrace {
	cs := make([]*caseTrace, n)
	if t == nil {
		return cs
	}
	for i := range cs {
		cs[i] = &caseTrace{self: slot{tr: t}}
	}
	t.cases = append(t.cases, cs...)
	return cs
}

// caseSlot allocates one case and opens its root span.
func (t *tracer) caseSlot() *slot {
	if t == nil {
		return nil
	}
	s := &t.addCases(1)[0].self
	s.root(layerCase)
	return s
}

// profile is the per-layer summary of one traced repetition.
type profile struct {
	wall, busy time.Duration
	self       [numLayers]time.Duration
	jobs       int
	jobTime    time.Duration
	workers    int
	counts     [numCounters]int64
	classic    []time.Duration // per call
	compile    []time.Duration // per call
}

// profile sums self times by layer for a repetition that took wall.
// Busy time is every span's self time except waiting, so the self times
// of all layers, with the case and job roots, add up to it exactly.
func (t *tracer) profile(wall time.Duration) profile {
	p := profile{wall: wall, workers: t.workers}
	add := func(s *slot) {
		for c := range s.counts {
			p.counts[c] += s.counts[c]
		}
		var children time.Duration
		for i, sp := range s.spans {
			if i == 0 && s.rooted {
				continue
			}
			d := sp.end - sp.start
			children += d
			switch sp.layer {
			case layerWait:
				continue
			case layerClassic:
				p.classic = append(p.classic, d)
			case layerCompile:
				p.compile = append(p.compile, d)
			}
			p.self[sp.layer] += d
			p.busy += d
		}
		if s.rooted && len(s.spans) > 0 {
			r := s.spans[0]
			d := r.end - r.start
			p.self[r.layer] += d - children
			p.busy += d - children
			if r.layer == layerJob {
				p.jobs++
				p.jobTime += d
			}
		}
	}
	add(&t.top)
	for _, c := range t.cases {
		add(&c.self)
		for _, batch := range c.jobs {
			for i := range batch {
				add(&batch[i])
			}
		}
	}
	return p
}

// spanJSON is one span of the file written by -spans.
type spanJSON struct {
	Name    string `json:"name"`
	Case    int    `json:"case"`   // -1 outside any case
	Parent  int    `json:"parent"` // index of the parent span, -1 for none
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes every span of the repetition to path as one JSON
// array, parents before children.
func (t *tracer) writeSpans(path string) error {
	var out []spanJSON
	// add appends the slot's spans under parent and returns the index of
	// the slot's root (parent for a slot without one).
	add := func(s *slot, caseID, parent int) int {
		root := parent
		for i, sp := range s.spans {
			out = append(out, spanJSON{Name: layerNames[sp.layer], Case: caseID, Parent: root,
				StartNS: int64(sp.start), EndNS: int64(sp.end)})
			if i == 0 && s.rooted {
				root = len(out) - 1
			}
		}
		return root
	}
	add(&t.top, -1, -1)
	for id, c := range t.cases {
		caseRoot := add(&c.self, id, -1)
		for _, batch := range c.jobs {
			for i := range batch {
				add(&batch[i], id, caseRoot)
			}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perLayerMetrics turns the profiles of the traced repetitions into the
// per-layer metrics. Layer times are shares of busy time, so a layer a
// workload never enters reads 0 without posing as a measured time;
// counts are per repetition. overhead is the traced wall time over the
// untraced one, minus 1.
func perLayerMetrics(ps []profile, overhead float64) []metric {
	var busy, jobTime, capacity time.Duration
	var self [numLayers]time.Duration
	var classic, compile []time.Duration
	for _, p := range ps {
		busy += p.busy
		jobTime += p.jobTime
		capacity += time.Duration(p.workers) * p.wall
		for l := range self {
			self[l] += p.self[l]
		}
		classic = append(classic, p.classic...)
		compile = append(compile, p.compile...)
	}
	first := ps[0]
	frac := func(l layer) metric {
		return metric{layerNames[l] + "_frac", ratio(float64(self[l]), float64(busy)), "frac"}
	}
	count := func(name string, c counter, unit string) metric {
		return metric{name, float64(first.counts[c]), unit}
	}
	ms := func(ds []time.Duration, q float64) float64 { return quantile(seconds(ds), q) * 1e3 }
	idle := 0.0
	if jobTime > 0 {
		idle = 1 - ratio(float64(jobTime), float64(capacity))
	}
	busyS := make([]time.Duration, len(ps))
	for i, p := range ps {
		busyS[i] = p.busy
	}
	return []metric{
		{"trace.busy_s", quantile(seconds(busyS), 0.5), "s"},
		{"trace.overhead_frac", overhead, "frac"},
		{"experiment.case_self_frac", ratio(float64(self[layerCase]+self[layerJob]), float64(busy)), "frac"},
		frac(layerClassic),
		frac(layerSlacks),
		frac(layerCompile),
		frac(layerMetrics),
		frac(layerBIL),
		frac(layerHEFT),
		frac(layerHBMCT),
		frac(layerRandom),
		frac(layerMCCompile),
		frac(layerMCSample),
		frac(layerBuild),
		frac(layerAggregate),
		frac(layerDistance),
		frac(layerCacheGet),
		frac(layerCachePut),
		frac(layerEncode),
		{"makespan.classic_calls", float64(len(first.classic)), "count"},
		{"makespan.classic_p50_ms", ms(classic, 0.5), "ms"},
		{"makespan.classic_p90_ms", ms(classic, 0.9), "ms"},
		{"makespan.classic_ns_per_task", ratio(float64(self[layerClassic]), float64(first.counts[countClassicTasks])*float64(len(ps))), "ns"},
		{"schedule.compile_calls", float64(len(first.compile)), "count"},
		{"schedule.compile_p50_ms", ms(compile, 0.5), "ms"},
		{"schedule.compile_p90_ms", ms(compile, 0.9), "ms"},
		count("heuristics.random_count", countRandom, "count"),
		count("schedule.mc_realizations", countRealizations, "count"),
		count("graphgen.tasks", countTasks, "count"),
		count("graphgen.edges", countEdges, "count"),
		{"runner.pool_jobs", float64(first.jobs), "count"},
		{"runner.pool_idle_frac", idle, "frac"},
		{"runner.cache_hit_ratio", ratio(float64(first.counts[countCacheHits]), float64(first.counts[countCacheGets])), "frac"},
		count("runner.cache_get_bytes", countCacheGetBytes, "B"),
		count("runner.cache_put_bytes", countCachePutBytes, "B"),
		count("experiment.encode_bytes", countEncodeBytes, "B"),
	}
}

// countsOf is the part of a profile that must repeat exactly.
func countsOf(p profile) [numCounters + 3]int64 {
	var out [numCounters + 3]int64
	copy(out[:], p.counts[:])
	out[numCounters] = int64(len(p.classic))
	out[numCounters+1] = int64(len(p.compile))
	out[numCounters+2] = int64(p.jobs)
	return out
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
