package makespan_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/stochastic"
)

// TestSharedOpsPoolAcrossAccuracies runs Classic and Dodin from several
// goroutines at once on caches at every accuracy preset. Evaluation
// workspaces come from one package-level pool, so a workspace grown at
// one accuracy is reused at another and its free list mixes 32- and
// 64-point buffers; every result must still equal a serial run bit for
// bit. Run under `go test -race -count=10` to patrol the sharing.
func TestSharedOpsPoolAcrossAccuracies(t *testing.T) {
	type job struct {
		label string
		model *makespan.EvalModel
	}
	var jobs []job
	for _, spec := range []experiment.CaseSpec{
		{Name: "pool-gauss", Family: experiment.GaussElimFamily, N: 20, M: 3, UL: 1.2, Seed: 5},
		{Name: "pool-sp", Family: experiment.SeriesParallelFamily, N: 20, M: 3, UL: 1.1, Seed: 6},
	} {
		scen, err := spec.BuildScenario()
		if err != nil {
			t.Fatal(err)
		}
		scheds := heuristics.RandomSchedules(scen, 3, rand.New(rand.NewSource(spec.Seed)))
		for _, name := range stochastic.AccuracyNames() {
			acc, _ := stochastic.AccuracyByName(name)
			cache := makespan.NewEvalCacheAccuracy(scen, acc)
			for i, s := range scheds {
				m, err := cache.Model(s)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{label: spec.Name + "/" + name + "/" + itoa(i), model: m})
			}
		}
	}

	classic := make([]*stochastic.Numeric, len(jobs))
	dodin := make([]*stochastic.Numeric, len(jobs))
	for i, j := range jobs {
		classic[i] = j.model.Classic()
		dodin[i] = j.model.Dodin()
	}

	const workers = 4
	gotClassic := make([][]*stochastic.Numeric, workers)
	gotDodin := make([][]*stochastic.Numeric, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		gotClassic[w] = make([]*stochastic.Numeric, len(jobs))
		gotDodin[w] = make([]*stochastic.Numeric, len(jobs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the jobs from a different offset, so
			// accuracies interleave differently on every workspace.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				gotClassic[w][i] = jobs[i].model.Classic()
				gotDodin[w][i] = jobs[i].model.Dodin()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i, j := range jobs {
			assertSameRV(t, "classic/"+j.label+"/worker"+itoa(w), gotClassic[w][i], classic[i])
			assertSameRV(t, "dodin/"+j.label+"/worker"+itoa(w), gotDodin[w][i], dodin[i])
		}
	}
}
