package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/seeds"
	"repro/internal/stats"
	"repro/internal/stochastic"
)

// workload is one set of inputs the benchmark runs, generated from the
// seed.
type workload struct {
	name string
	// setup builds every input scenario of the workload, the same work
	// run does first; its median time is setup_s.
	setup func(seed int64) error
	// run performs one repetition. With tr == nil it calls the program's
	// own entry point; otherwise it drives the same work layer by layer
	// through public functions and records spans in tr. Both must return
	// the same document.
	run func(ctx context.Context, it iteration, tr *tracer) (outcome, error)
	// check validates a document beyond byte equality: its shape and the
	// ranges of its values.
	check func(doc []byte) error
}

// iteration is what one repetition gets from the harness.
type iteration struct {
	seed    int64
	workdir string // scratch directory for case caches
	workers int
}

// outcome is one repetition's result document and its unit counts.
type outcome struct {
	doc []byte
	// same holds further documents the repetition produced that must be
	// byte-identical to doc, such as a resume from the case cache.
	same      [][]byte
	attempted int
	failed    int
}

// workloads are the benchmark's workloads at benchmark scale. Each
// repetition takes a few seconds on two cores, so a run of 20 s has
// several repetitions to take the median of.
func workloads() []*workload {
	return []*workload{
		// Fig. 6's sizes, uncertainty levels and structured families
		// with two instances per cell (24 cases, like Fig. 6) and 40
		// random schedules, reference accuracy, into a cold case cache
		// that is then read back by a resume: exactly `experiments -fig
		// sweep -families cholesky,gausselim -sweep-sizes 10,30,100
		// -sweep-uls 1.01,1.1 -sweep-reps 2 -schedules 40 -json
		// -cache-dir DIR`, run twice. Fig. 6's random graphs are left
		// out: their cost changes by about 10% from one seed to the
		// next, and one random 100-task case alone takes ~7 s.
		sweepWorkload("fig6-grid", experiment.Sweep{
			NamePrefix: "sweep",
			Families:   []string{experiment.CholeskyFamily, experiment.GaussElimFamily},
			Sizes:      []int{10, 30, 100},
			ULs:        []float64{1.01, 1.1},
			Reps:       2,
		}, 40, "", true),
		// Large schedules at the fast accuracy: exactly `experiments
		// -fig sweep -families cholesky,gausselim,fft -sweep-sizes 2000
		// -sweep-uls 1.1 -eval-accuracy fast -json`.
		sweepWorkload("sweep-fast", experiment.Sweep{
			NamePrefix: "sweep",
			Families:   []string{experiment.CholeskyFamily, experiment.GaussElimFamily, experiment.FFTFamily},
			Sizes:      []int{2000},
			ULs:        []float64{1.1},
		}, 0, "fast", false),
		// Fig. 1 with the paper's Monte-Carlo settings (100 000
		// realizations, table sampler) on 24 random graphs of 10 to 33
		// tasks, one schedule each. A run's cost follows the total edge
		// count of its random graphs, and 24 graphs keep that within a
		// few percent across seeds; at these sizes the kernel, not the
		// reference evaluation, takes most of the time.
		fig1Workload("fig1-mc", []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
			22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33}, 1, 100000),
		// The library facade scheduling large graphs with every
		// registered heuristic, evaluated at the fast accuracy. BIL's
		// time grows fastest on FFT graphs, so the 12 287-task FFT makes
		// scheduling a large share of the work.
		heuristicsWorkload("heuristics-large", []heurCase{
			{Family: experiment.CholeskyFamily, N: 3000, M: 8, UL: 1.1},
			{Family: experiment.FFTFamily, N: 12000, M: 8, UL: 1.1},
		}, stochastic.AccuracyFast),
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// encodeDoc renders a result document the way cmd/experiments -json
// writes it.
func encodeDoc(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := experiment.WriteJSON(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepWorkload runs a case grid through experiment.AggregateCases, as
// cmd/experiments -fig sweep does. schedules > 0 overrides the random
// schedules per case; accuracy is an -eval-accuracy spelling. With
// cached, every repetition writes a fresh case cache and then resumes
// from it, and the resumed document must equal the computed one.
func sweepWorkload(name string, grid experiment.Sweep, schedules int, accuracy string, cached bool) *workload {
	return &workload{
		name: name,
		setup: func(seed int64) error {
			specs, err := grid.Cases(seed)
			if err != nil {
				return err
			}
			for _, spec := range specs {
				if _, err := spec.BuildScenario(); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(ctx context.Context, it iteration, tr *tracer) (outcome, error) {
			cfg := experiment.DefaultConfig()
			cfg.Seed = it.seed
			cfg.Workers = it.workers
			if schedules > 0 {
				cfg.Schedules = schedules
			}
			cfg.EvalAccuracy = accuracy
			specs, err := grid.Cases(cfg.Seed)
			if err != nil {
				return outcome{}, err
			}
			var cache *runner.Cache
			if cached {
				dir, err := os.MkdirTemp(it.workdir, "cache-")
				if err != nil {
					return outcome{}, err
				}
				defer os.RemoveAll(dir)
				if cache, err = runner.OpenCache(dir); err != nil {
					return outcome{}, err
				}
			}
			pool := runner.NewPool(cfg.Workers)
			defer pool.Close()
			pass := func() (outcome, error) {
				if tr != nil {
					return traceSweep(ctx, specs, cfg, pool, cache, tr)
				}
				report := experiment.NewRunReport()
				res, err := experiment.AggregateCases(ctx, specs, cfg, experiment.RunOptions{
					Pool: pool, Cache: cache, Report: report, KeepGoing: true})
				if err != nil {
					return outcome{}, err
				}
				doc, err := encodeDoc(res)
				return outcome{doc: doc, attempted: len(specs), failed: len(report.Snapshot().Failures())}, err
			}
			out, err := pass()
			if err != nil || cache == nil {
				return out, err
			}
			resumed, err := pass()
			if err != nil {
				return outcome{}, err
			}
			out.same = append(out.same, resumed.doc)
			return out, nil
		},
		check: func(doc []byte) error {
			var res experiment.Fig6Result
			if err := json.Unmarshal(doc, &res); err != nil {
				return err
			}
			specs, err := grid.Cases(0)
			if err != nil {
				return err
			}
			if len(res.Cases) != len(specs) {
				return fmt.Errorf("%d cases in the document, want %d", len(res.Cases), len(specs))
			}
			return checkCorrelations(res.Mean)
		},
	}
}

// checkCorrelations checks that m is a Pearson matrix over the metric
// vector: square, every defined cell in [-1, 1]; NaN marks an undefined
// cell.
func checkCorrelations(m [][]float64) error {
	if len(m) != robustness.NumMetrics {
		return fmt.Errorf("matrix has %d rows, want %d", len(m), robustness.NumMetrics)
	}
	for i, row := range m {
		if len(row) != robustness.NumMetrics {
			return fmt.Errorf("matrix row %d has %d cells", i, len(row))
		}
		for _, v := range row {
			if math.Abs(v) > 1+1e-9 {
				return fmt.Errorf("correlation %g outside [-1, 1]", v)
			}
		}
	}
	return nil
}

// schedulesFor is experiment.Config's rule for the random schedules of a
// case: graphs of 100 tasks or more get a fifth of the budget, at least
// 20.
func schedulesFor(schedules, n int) int {
	if n >= 100 {
		return max(schedules/5, 20)
	}
	return schedules
}

// traceSweep is experiment.AggregateCases decomposed into its layer
// calls: RunCases' admission of at most one case per pool worker in spec
// order, runCaseCached's cache get and put, RunCaseOn's phases as pool
// batches (build and random schedules, evaluations, heuristics,
// correlation matrix), and the aggregation. Failed cases leave nil
// slots, as under RunOptions.KeepGoing.
func traceSweep(ctx context.Context, specs []experiment.CaseSpec, cfg experiment.Config,
	pool *runner.Pool, cache *runner.Cache, tr *tracer) (outcome, error) {
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return outcome{}, err
	}
	params := robustness.Params{Delta: cfg.Delta, Gamma: cfg.Gamma, GridSize: acc.GridSize}
	cases := tr.addCases(len(specs))
	results := make([]*experiment.CaseResult, len(specs))
	errs := make([]error, len(specs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
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
	var wg sync.WaitGroup
	for w := 0; w < min(pool.Workers(), len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range caseCh {
				results[i], errs[i] = traceCaseCached(ctx, cases[i], specs[i], cfg, acc, params, pool, cache)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}

	top := tr.topSlot()
	a := top.begin(layerAggregate)
	res, err := aggregate(results)
	top.end(a)
	if err != nil {
		return outcome{}, err
	}
	e := top.begin(layerEncode)
	doc, err := encodeDoc(res)
	top.end(e)
	top.count(countEncodeBytes, len(doc))
	return outcome{doc: doc, attempted: len(specs), failed: failed}, err
}

// aggregate is AggregateCases' assembly of the finished cases.
func aggregate(cases []*experiment.CaseResult) (*experiment.Fig6Result, error) {
	res := &experiment.Fig6Result{}
	var mats [][][]float64
	var relVals []float64
	for _, cr := range cases {
		if cr == nil {
			continue
		}
		res.Cases = append(res.Cases, cr)
		mats = append(mats, cr.Corr)
		if !math.IsNaN(cr.RelByMakespanVsStd) {
			relVals = append(relVals, cr.RelByMakespanVsStd)
		}
	}
	mean, std, err := stats.AggregateMatrices(mats)
	if err != nil {
		return nil, err
	}
	res.Mean, res.Std = mean, std
	if len(relVals) > 0 {
		var sum float64
		for _, v := range relVals {
			sum += v
		}
		mu := sum / float64(len(relVals))
		var ss float64
		for _, v := range relVals {
			d := v - mu
			ss += d * d
		}
		res.RelByMkspnMean = mu
		res.RelByMkspnStd = math.Sqrt(ss / float64(len(relVals)))
	}
	return res, nil
}

// traceCaseCached is runCaseCached: a cache hit is decoded and returned,
// a miss is computed, encoded and stored.
func traceCaseCached(ctx context.Context, ct *caseTrace, spec experiment.CaseSpec, cfg experiment.Config,
	acc stochastic.EvalAccuracy, params robustness.Params, pool *runner.Pool, cache *runner.Cache) (*experiment.CaseResult, error) {
	s := &ct.self
	s.root(layerCase)
	defer s.end(0)
	var key string
	if cache != nil {
		var err error
		if key, err = experiment.CaseCacheKey(spec, cfg); err != nil {
			return nil, err
		}
		g := s.begin(layerCacheGet)
		data, ok, err := cache.Get(key)
		var res experiment.CaseResult
		hit := ok && err == nil && json.Unmarshal(data, &res) == nil
		s.end(g)
		s.count(countCacheGets, 1)
		if err != nil {
			return nil, err
		}
		if hit {
			s.count(countCacheHits, 1)
			s.count(countCacheGetBytes, len(data))
			return &res, nil
		}
		if ok {
			cache.Quarantine(key)
		}
	}
	res, err := traceCase(ctx, ct, spec, cfg, acc, params, pool)
	if err != nil || cache == nil {
		return res, err
	}
	e := s.begin(layerEncode)
	data, err := json.Marshal(res)
	s.end(e)
	if err != nil {
		return nil, err
	}
	s.count(countEncodeBytes, len(data))
	p := s.begin(layerCachePut)
	err = cache.Put(key, data)
	s.end(p)
	s.count(countCachePutBytes, len(data))
	return res, err
}

// batch is Pool.Batch with one pre-allocated slot per job; the case
// goroutine's time blocked in it is recorded as waiting.
func (c *caseTrace) batch(ctx context.Context, pool *runner.Pool, n int, fn func(i int, s *slot) error) error {
	jobs := make([]slot, n)
	for i := range jobs {
		jobs[i].tr = c.self.tr
	}
	c.jobs = append(c.jobs, jobs)
	w := c.self.begin(layerWait)
	defer c.self.end(w)
	return pool.Batch(ctx, n, func(i int) error {
		s := &jobs[i]
		s.root(layerJob)
		defer s.end(0)
		return fn(i, s)
	})
}

// traceCase is RunCaseOn, phase by phase.
func traceCase(ctx context.Context, ct *caseTrace, spec experiment.CaseSpec, cfg experiment.Config,
	acc stochastic.EvalAccuracy, params robustness.Params, pool *runner.Pool) (*experiment.CaseResult, error) {
	var (
		scen   *repro.Scenario
		cache  *makespan.EvalCache
		scheds []*schedule.Schedule
	)
	err := ct.batch(ctx, pool, 1, func(_ int, s *slot) error {
		var err error
		if scen, err = buildScenario(s, spec); err != nil {
			return err
		}
		cache = makespan.NewEvalCacheAccuracy(scen, acc)
		rng := rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
		r := s.begin(layerRandom)
		scheds = heuristics.RandomSchedules(scen, schedulesFor(cfg.Schedules, scen.G.N()), rng)
		s.end(r)
		s.count(countRandom, len(scheds))
		return nil
	})
	if err != nil {
		return nil, err
	}

	metrics := make([]robustness.Metrics, len(scheds))
	err = ct.batch(ctx, pool, len(scheds), func(i int, s *slot) error {
		var err error
		metrics[i], err = evaluate(s, cache, scheds[i], params)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("case %q: %w", spec.Name, err)
	}

	res := &experiment.CaseResult{Spec: spec, Metrics: metrics}
	hs := sortedHeuristics()
	res.Heuristics = make([]experiment.HeuristicResult, len(hs))
	err = ct.batch(ctx, pool, len(hs), func(i int, s *slot) error {
		m, _, err := runHeuristic(s, hs[i], scen, cache, params)
		res.Heuristics[i] = experiment.HeuristicResult{Name: hs[i].Name, Metrics: m}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("case %q: %w", spec.Name, err)
	}

	err = ct.batch(ctx, pool, 1, func(_ int, s *slot) error {
		a := s.begin(layerAggregate)
		defer s.end(a)
		corr, err := stats.CorrMatrix(experiment.InvertedColumns(metrics))
		if err != nil {
			return err
		}
		res.Corr = corr
		relBy := make([]float64, len(metrics))
		stds := make([]float64, len(metrics))
		for i, m := range metrics {
			relBy[i] = 1 - m.RelProbByMakespan()
			stds[i] = m.StdDev
		}
		res.RelByMakespanVsStd = stats.Pearson(relBy, stds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func buildScenario(s *slot, spec experiment.CaseSpec) (*repro.Scenario, error) {
	b := s.begin(layerBuild)
	scen, err := spec.BuildScenario()
	s.end(b)
	if err != nil {
		return nil, err
	}
	s.count(countTasks, scen.G.N())
	s.count(countEdges, scen.G.EdgeCount())
	return scen, nil
}

// sortedHeuristics returns the registered heuristics by name, the order
// RunCaseOn emits their rows in.
func sortedHeuristics() []heuristics.Entry {
	hs := heuristics.All()
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	return hs
}

// heuristicLayers maps each registered heuristic to its span layer; a
// newly registered heuristic needs a layer before it can be traced.
var heuristicLayers = []struct {
	name  string
	layer layer
}{{"BIL", layerBIL}, {"HEFT", layerHEFT}, {"HBMCT", layerHBMCT}}

// runHeuristic schedules the scenario with h and evaluates the schedule.
func runHeuristic(s *slot, h heuristics.Entry, scen *repro.Scenario, cache *makespan.EvalCache,
	params robustness.Params) (robustness.Metrics, heuristics.Result, error) {
	l := layer(numLayers)
	for _, hl := range heuristicLayers {
		if hl.name == h.Name {
			l = hl.layer
		}
	}
	if s != nil && l == numLayers {
		return robustness.Metrics{}, heuristics.Result{}, fmt.Errorf("heuristic %q has no trace layer", h.Name)
	}
	i := s.begin(l)
	hr, err := h.Fn(scen)
	s.end(i)
	if err != nil {
		return robustness.Metrics{}, hr, fmt.Errorf("heuristic %s: %w", h.Name, err)
	}
	m, err := evaluate(s, cache, hr.Schedule, params)
	return m, hr, err
}

// evaluate is EvalCache.Model(s).Metrics(params), one layer per call.
func evaluate(s *slot, cache *makespan.EvalCache, sched *schedule.Schedule, params robustness.Params) (robustness.Metrics, error) {
	c := s.begin(layerCompile)
	model, err := cache.Model(sched)
	s.end(c)
	if err != nil {
		return robustness.Metrics{}, err
	}
	k := s.begin(layerClassic)
	rv := model.Classic()
	s.end(k)
	s.count(countClassicTasks, cache.Scenario().G.N())
	l := s.begin(layerSlacks)
	slacks := model.Slacks()
	s.end(l)
	r := s.begin(layerMetrics)
	m := robustness.FromDistributionSlacks(rv, slacks, params)
	s.end(r)
	return m, nil
}

// fig1Workload runs experiment.Fig1 on the given sizes with the paper's
// Monte-Carlo settings (table sampler) at the given realization count.
func fig1Workload(name string, sizes []int, perSize, realizations int) *workload {
	return &workload{
		name: name,
		setup: func(seed int64) error {
			for _, n := range sizes {
				if _, err := fig1Spec(seed, n).BuildScenario(); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(ctx context.Context, it iteration, tr *tracer) (outcome, error) {
			cfg := experiment.DefaultConfig()
			cfg.Seed = it.seed
			cfg.Workers = it.workers
			cfg.MCRealizations = realizations
			cfg.MCSampler = stochastic.SamplerTable.String()
			var rows []experiment.Fig1Row
			var err error
			if tr != nil {
				rows, err = traceFig1(cfg, sizes, perSize, tr)
			} else {
				rows, err = experiment.Fig1(cfg, sizes, perSize)
			}
			if err != nil {
				return outcome{}, err
			}
			top := tr.topSlot()
			e := top.begin(layerEncode)
			doc, err := encodeDoc(rows)
			top.end(e)
			top.count(countEncodeBytes, len(doc))
			return outcome{doc: doc, attempted: len(sizes) * perSize}, err
		},
		check: func(doc []byte) error {
			var rows []experiment.Fig1Row
			if err := json.Unmarshal(doc, &rows); err != nil {
				return err
			}
			if len(rows) != len(sizes) {
				return fmt.Errorf("%d rows, want %d", len(rows), len(sizes))
			}
			for _, r := range rows {
				if !(r.KS >= 0 && r.KS <= 1) || !(r.CM >= 0) || math.IsInf(r.CM, 0) {
					return fmt.Errorf("row n=%d: KS %g, CM %g out of range", r.N, r.KS, r.CM)
				}
			}
			return nil
		},
	}
}

// fig1Spec is the case experiment.Fig1 builds for size n.
func fig1Spec(seed int64, n int) experiment.CaseSpec {
	m := 16
	switch {
	case n <= 10:
		m = 3
	case n <= 30:
		m = 8
	}
	return experiment.CaseSpec{
		Name: fmt.Sprintf("fig1-n%d", n), Family: experiment.RandomFamily,
		N: n, M: m, UL: 1.1,
		Seed: seeds.Derive(seed, fmt.Sprintf("fig1/n%d", n)),
	}
}

// traceFig1 is experiment.Fig1 decomposed into its layer calls, with
// makespan.MonteCarloWith split into the kernel's compile and sampling.
func traceFig1(cfg experiment.Config, sizes []int, perSize int, tr *tracer) ([]experiment.Fig1Row, error) {
	mode, err := stochastic.ParseSamplerMode(cfg.MCSampler)
	if err != nil {
		return nil, err
	}
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return nil, err
	}
	kopt := schedule.KernelOptions{BlockSize: cfg.MCBlockSize, Workers: cfg.Workers}
	var rows []experiment.Fig1Row
	for _, n := range sizes {
		s := tr.caseSlot()
		spec := fig1Spec(cfg.Seed, n)
		scen, err := buildScenario(s, spec)
		if err != nil {
			return nil, err
		}
		cache := makespan.NewEvalCacheAccuracy(scen, acc)
		rng := rand.New(rand.NewSource(seeds.Derive(spec.Seed, "fig1-schedules")))
		mcSeeds := seeds.NewFamily(spec.Seed, "fig1-mc")
		var ksSum, cmSum float64
		for k := 0; k < perSize; k++ {
			r := s.begin(layerRandom)
			sched := heuristics.RandomSchedule(scen, rng)
			s.end(r)
			s.count(countRandom, 1)
			c := s.begin(layerCompile)
			model, err := cache.Model(sched)
			s.end(c)
			if err != nil {
				return nil, err
			}
			cl := s.begin(layerClassic)
			rv := model.Classic()
			s.end(cl)
			s.count(countClassicTasks, scen.G.N())
			mc := s.begin(layerMCCompile)
			sim, err := schedule.NewSimulator(scen, sched)
			if err != nil {
				return nil, err
			}
			kernel := sim.Compile(mode)
			s.end(mc)
			ms := s.begin(layerMCSample)
			emp := kernel.Empirical(cfg.MCRealizations, mcSeeds.Seed(k), kopt)
			s.end(ms)
			s.count(countRealizations, cfg.MCRealizations)
			d := s.begin(layerDistance)
			ksSum += stats.KSAgainstEmpirical(rv, emp)
			lo, hi := stats.SupportUnion(rv, emp)
			cmSum += stats.CMArea(rv, emp, lo, hi, 1024)
			s.end(d)
		}
		s.end(0)
		rows = append(rows, experiment.Fig1Row{
			N:  scen.G.N(),
			KS: ksSum / float64(perSize),
			CM: cmSum / float64(perSize),
		})
	}
	return rows, nil
}

// heurCase is one scenario of the heuristics workload.
type heurCase struct {
	Family string  `json:"family"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	UL     float64 `json:"ul"`
}

// heurDoc is the heuristics workload's result document.
type heurDoc struct {
	Scenarios []heurScenario `json:"scenarios"`
}

type heurScenario struct {
	heurCase
	Seed       int64     `json:"seed"`
	Tasks      int       `json:"tasks"`
	Edges      int       `json:"edges"`
	Heuristics []heurRow `json:"heuristics"`
}

type heurRow struct {
	Name     string             `json:"name"`
	Estimate float64            `json:"estimate"` // the heuristic's own makespan estimate
	Metrics  robustness.Metrics `json:"metrics"`
}

func (c heurCase) seed(base int64) int64 {
	return seeds.Derive(base, fmt.Sprintf("heuristics/%s/n%d/m%d/ul%g", c.Family, c.N, c.M, c.UL))
}

// heuristicsWorkload is the library path with no pool: repro.NewScenario,
// then every registered heuristic in name order, each schedule
// evaluated through one EvalCache per scenario. The program has no
// single entry point for it, so the traced and untraced runs share this
// code and differ only in recording spans.
func heuristicsWorkload(name string, cases []heurCase, acc stochastic.EvalAccuracy) *workload {
	params := robustness.Params{Delta: 0.1, Gamma: 1.0003, GridSize: acc.GridSize}
	return &workload{
		name: name,
		setup: func(seed int64) error {
			for _, c := range cases {
				if _, err := repro.NewScenario(c.Family, c.N, c.M, c.UL, c.seed(seed)); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(ctx context.Context, it iteration, tr *tracer) (outcome, error) {
			var doc heurDoc
			hs := sortedHeuristics()
			for _, c := range cases {
				if err := ctx.Err(); err != nil {
					return outcome{}, err
				}
				s := tr.caseSlot()
				b := s.begin(layerBuild)
				scen, err := repro.NewScenario(c.Family, c.N, c.M, c.UL, c.seed(it.seed))
				s.end(b)
				if err != nil {
					return outcome{}, err
				}
				s.count(countTasks, scen.G.N())
				s.count(countEdges, scen.G.EdgeCount())
				sc := heurScenario{heurCase: c, Seed: c.seed(it.seed), Tasks: scen.G.N(), Edges: scen.G.EdgeCount()}
				cache := repro.NewEvalCacheAccuracy(scen, acc)
				for _, h := range hs {
					m, hr, err := runHeuristic(s, h, scen, cache, params)
					if err != nil {
						return outcome{}, err
					}
					sc.Heuristics = append(sc.Heuristics, heurRow{Name: h.Name, Estimate: hr.Makespan, Metrics: m})
				}
				s.end(0)
				doc.Scenarios = append(doc.Scenarios, sc)
			}
			top := tr.topSlot()
			e := top.begin(layerEncode)
			data, err := encodeDoc(doc)
			top.end(e)
			top.count(countEncodeBytes, len(data))
			return outcome{doc: data, attempted: len(cases) * len(hs)}, err
		},
		check: func(data []byte) error {
			var doc heurDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				return err
			}
			if len(doc.Scenarios) != len(cases) {
				return fmt.Errorf("%d scenarios, want %d", len(doc.Scenarios), len(cases))
			}
			for _, sc := range doc.Scenarios {
				for _, h := range sc.Heuristics {
					m := h.Metrics.Makespan
					if !(m > 0) || math.IsInf(m, 0) || !(h.Estimate > 0) {
						return fmt.Errorf("%s/%s: makespan %g, estimate %g", sc.Family, h.Name, m, h.Estimate)
					}
				}
			}
			return nil
		},
	}
}
