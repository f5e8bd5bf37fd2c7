package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/seeds"
	"repro/internal/stochastic"
)

// AccuracyRow is one setting of the accuracy study: the per-metric
// relative error of evaluating every study case at this accuracy
// instead of the 64-point reference, aggregated over all registered
// workload families. Random-schedule errors (MaxErr/MeanErr) and
// heuristic-schedule errors (HeurMaxErr/HeurMeanErr) are kept apart:
// heuristic schedules are compact where random ones sprawl, so their
// discretization error profile is genuinely different.
type AccuracyRow struct {
	Accuracy    string    `json:"accuracy"` // canonical spelling (ParseEvalAccuracy round-trips it)
	GridSize    int       `json:"grid_size"`
	WorkGrid    int       `json:"work_grid"`
	MaxErr      []float64 `json:"max_rel_err"`                 // random schedules, per metric, MetricNames order
	MeanErr     []float64 `json:"mean_rel_err"`                // random schedules, per metric
	HeurMaxErr  []float64 `json:"heur_max_rel_err,omitempty"`  // heuristic schedules, per metric
	HeurMeanErr []float64 `json:"heur_mean_rel_err,omitempty"` // heuristic schedules, per metric
}

// AccuracyStudy is the full report: the studied accuracies (the fast
// and coarse presets plus a density-grid sweep under the reference
// resampling policy) against the reference evaluation.
type AccuracyStudy struct {
	Families   []string      `json:"families"`
	Schedules  int           `json:"schedules_per_family"` // random schedules drawn per family
	Heuristics []string      `json:"heuristics"`           // heuristic schedules drawn per family
	Rows       []AccuracyRow `json:"rows"`
}

// relErr is the study's error measure: relative to the reference
// magnitude when it is meaningfully nonzero, absolute otherwise (the
// slack of a zero-slack schedule, a vanishing probability).
func relErr(got, ref float64) float64 {
	d := math.Abs(got - ref)
	if m := math.Abs(ref); m > 1e-9 {
		return d / m
	}
	return d
}

// studyAccuracies lists the settings the study measures: the named
// non-reference presets, then a density-grid sweep under the reference
// resampling policy.
func studyAccuracies() []stochastic.EvalAccuracy {
	accs := []stochastic.EvalAccuracy{stochastic.AccuracyFast, stochastic.AccuracyCoarse}
	for _, g := range []int{8, 16, 32, 48, 96} {
		accs = append(accs, stochastic.EvalAccuracy{GridSize: g}.Canon())
	}
	return accs
}

// studySchedulesPerFamily maps the configured schedule budget onto the
// study's per-family random draw: 1/18 of the budget, clamped to
// [8, 64]. The default budget (150) keeps the historical draw of 8;
// the paper-scale budget (-full, 10 000) saturates at 64 — the study's
// cost is dominated by the reference evaluations, so it scales the
// draw sub-linearly instead of inheriting the full correlation-sample
// count.
func studySchedulesPerFamily(cfg Config) int {
	n := cfg.Schedules / 18
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// errAccumulator aggregates per-metric relative errors of one schedule
// source against the reference vectors.
type errAccumulator struct {
	maxErr  [][]float64 // [accuracy][metric]
	sumErr  [][]float64
	samples int
}

func newErrAccumulator(nAccs, nMetrics int) *errAccumulator {
	a := &errAccumulator{
		maxErr: make([][]float64, nAccs),
		sumErr: make([][]float64, nAccs),
	}
	for i := range a.maxErr {
		a.maxErr[i] = make([]float64, nMetrics)
		a.sumErr[i] = make([]float64, nMetrics)
	}
	return a
}

func (a *errAccumulator) add(i int, vec, refVec []float64) {
	for c := range vec {
		e := relErr(vec[c], refVec[c])
		a.sumErr[i][c] += e
		if e > a.maxErr[i][c] {
			a.maxErr[i][c] = e
		}
	}
}

func (a *errAccumulator) mean(i int) []float64 {
	out := make([]float64, len(a.sumErr[i]))
	for c := range out {
		out[c] = a.sumErr[i][c] / float64(a.samples)
	}
	return out
}

// AccuracyStudyRun measures the discretization error of every
// non-reference accuracy: for each registered workload family it draws
// a case, cfg-many random schedules (studySchedulesPerFamily — -full
// widens the draw), and one schedule per registered heuristic, then
// evaluates the full metric vector at the reference accuracy and at
// each studied accuracy, aggregating the per-metric relative errors
// separately for the random and the heuristic schedules. The README's
// "Evaluation accuracy" numbers come from this report (cmd/experiments
// -fig accuracy).
func AccuracyStudyRun(cfg Config) (*AccuracyStudy, error) {
	if err := cfg.ValidateEval(); err != nil {
		return nil, err
	}
	families := FamilyNames()
	schedulesPerFamily := studySchedulesPerFamily(cfg)

	hs := heuristics.All()

	accs := studyAccuracies()
	study := &AccuracyStudy{Families: families, Schedules: schedulesPerFamily}
	for _, h := range hs {
		study.Heuristics = append(study.Heuristics, h.Name)
	}
	k := robustness.NumMetrics
	randErr := newErrAccumulator(len(accs), k)
	heurErr := newErrAccumulator(len(accs), k)

	for _, family := range families {
		spec := CaseSpec{
			Name: "accuracy-" + family, Family: family, N: 30, M: 4, UL: 1.2,
			Seed: seeds.Derive(cfg.Seed, "accuracy/"+family),
		}
		scen, err := spec.BuildScenario()
		if err != nil {
			return nil, fmt.Errorf("experiment: accuracy study %s: %w", family, err)
		}
		rng := rand.New(rand.NewSource(seeds.Derive(spec.Seed, "accuracy-schedules")))
		scheds := heuristics.RandomSchedules(scen, schedulesPerFamily, rng)

		refCache := makespan.NewEvalCacheAccuracy(scen, stochastic.AccuracyReference)
		caches := make([]*makespan.EvalCache, len(accs))
		for i, acc := range accs {
			caches[i] = makespan.NewEvalCacheAccuracy(scen, acc)
		}
		measure := func(s *schedule.Schedule, into *errAccumulator) error {
			refModel, err := refCache.Model(s)
			if err != nil {
				return err
			}
			refVec := refModel.Metrics(cfg.params(stochastic.AccuracyReference)).Vector()
			into.samples++
			for i, acc := range accs {
				m, err := caches[i].Model(s)
				if err != nil {
					return err
				}
				vec := m.Metrics(cfg.params(acc)).Vector()
				into.add(i, vec[:], refVec[:])
			}
			return nil
		}
		for _, s := range scheds {
			if err := measure(s, randErr); err != nil {
				return nil, err
			}
		}
		for _, h := range hs {
			hr, err := h.Fn(scen)
			if err != nil {
				return nil, fmt.Errorf("experiment: accuracy study %s heuristic %s: %w", family, h.Name, err)
			}
			if err := measure(hr.Schedule, heurErr); err != nil {
				return nil, err
			}
		}
	}

	for i, acc := range accs {
		study.Rows = append(study.Rows, AccuracyRow{
			Accuracy:    acc.String(),
			GridSize:    acc.GridSize,
			WorkGrid:    acc.WorkGrid,
			MaxErr:      randErr.maxErr[i],
			MeanErr:     randErr.mean(i),
			HeurMaxErr:  heurErr.maxErr[i],
			HeurMeanErr: heurErr.mean(i),
		})
	}
	return study, nil
}

// WriteAccuracy renders the accuracy study as text.
func WriteAccuracy(w io.Writer, st *AccuracyStudy) {
	fmt.Fprintln(w, "# Evaluation accuracy study — per-metric relative error vs the 64-point reference")
	fmt.Fprintf(w, "families: %d, random schedules per family: %d, heuristic schedules per family: %d\n\n",
		len(st.Families), st.Schedules, len(st.Heuristics))
	for _, kind := range []struct {
		name string
		pick func(AccuracyRow) []float64
	}{
		{"max relative error (random schedules)", func(r AccuracyRow) []float64 { return r.MaxErr }},
		{"mean relative error (random schedules)", func(r AccuracyRow) []float64 { return r.MeanErr }},
		{"max relative error (heuristic schedules)", func(r AccuracyRow) []float64 { return r.HeurMaxErr }},
		{"mean relative error (heuristic schedules)", func(r AccuracyRow) []float64 { return r.HeurMeanErr }},
	} {
		rendered := false
		for _, row := range st.Rows {
			errs := kind.pick(row)
			if len(errs) == 0 {
				continue // study predates heuristic-schedule columns
			}
			if !rendered {
				fmt.Fprintf(w, "## %s\n", kind.name)
				fmt.Fprintf(w, "%-18s", "accuracy")
				for _, name := range robustness.MetricNames {
					fmt.Fprintf(w, " %9s", name)
				}
				fmt.Fprintln(w)
				rendered = true
			}
			fmt.Fprintf(w, "%-18s", row.Accuracy)
			for _, e := range errs {
				fmt.Fprintf(w, " %9.2e", e)
			}
			fmt.Fprintln(w)
		}
		if rendered {
			fmt.Fprintln(w)
		}
	}
}
