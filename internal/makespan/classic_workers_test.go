package makespan_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// sameBits reports whether two densities are equal bit for bit:
// support, kind and every grid value.
func sameBits(a, b *stochastic.Numeric) bool {
	if a.IsPoint() != b.IsPoint() ||
		math.Float64bits(a.Lo()) != math.Float64bits(b.Lo()) ||
		math.Float64bits(a.Hi()) != math.Float64bits(b.Hi()) {
		return false
	}
	pa, pb := a.PDFGrid(), b.PDFGrid()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			return false
		}
	}
	return true
}

// classicAcrossWorkers runs Classic at one worker, then at worker caps
// 2, 3 and 8 concurrently on the same model, fails unless every result
// equals the serial one bit for bit, and returns the helpers started.
func classicAcrossWorkers(t *testing.T, label string, m *makespan.EvalModel) int {
	t.Helper()
	want, helpers := m.ClassicWorkers(1)
	if helpers != 0 {
		t.Fatalf("%s: one worker started %d helpers", label, helpers)
	}
	caps := []int{2, 3, 8}
	got := make([]*stochastic.Numeric, len(caps))
	started := make([]int, len(caps))
	var wg sync.WaitGroup
	for i, w := range caps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], started[i] = m.ClassicWorkers(w)
		}()
	}
	wg.Wait()
	total := 0
	for i, w := range caps {
		if !sameBits(got[i], want) {
			t.Errorf("%s: %d workers: density differs from one worker's", label, w)
		}
		total += started[i]
	}
	return total
}

// TestClassicIdenticalAcrossWorkers pins Classic's parallel evaluation
// to its serial result on every family, for HEFT's schedule and a
// random one, at the fast accuracy and, on graphs of at most 30 tasks,
// at the reference accuracy. Run under `go test -race -count=10` to
// patrol the ready queue, the refcounts and the workspaces that
// densities migrate between.
func TestClassicIdenticalAcrossWorkers(t *testing.T) {
	// Helpers start only while Classic's goroutines leave a processor
	// idle; four concurrent callers alone would fill two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	cells := []struct {
		n   int
		acc stochastic.EvalAccuracy
	}{
		{16, stochastic.AccuracyReference},
		{24, stochastic.AccuracyFast},
	}
	helpers := 0
	for _, family := range experiment.FamilyNames() {
		for _, c := range cells {
			spec := experiment.CaseSpec{Name: "workers", Family: family, N: c.n, M: 8, UL: 1.2, Seed: 3}
			scen, err := spec.BuildScenario()
			if err != nil {
				t.Fatalf("%s/n=%d: %v", family, c.n, err)
			}
			if c.acc == stochastic.AccuracyReference && scen.G.N() > 30 {
				t.Fatalf("%s/n=%d: %d tasks at reference accuracy", family, c.n, scen.G.N())
			}
			heft, err := heuristics.HEFT(scen)
			if err != nil {
				t.Fatal(err)
			}
			cache := makespan.NewEvalCacheAccuracy(scen, c.acc)
			scheds := map[string]*schedule.Schedule{
				"heft":   heft.Schedule,
				"random": heuristics.RandomSchedule(scen, rand.New(rand.NewSource(7))),
			}
			for name, s := range scheds {
				m, err := cache.Model(s)
				if err != nil {
					t.Fatal(err)
				}
				helpers += classicAcrossWorkers(t, family+"/n="+itoa(c.n)+"/"+name, m)
			}
		}
	}
	if helpers == 0 {
		t.Fatal("no helper started: the parallel path went untested")
	}

	// On one processor the disjunctive graph is a chain: a task is
	// never ready while another waits, so no helper may start.
	spec := experiment.CaseSpec{Name: "workers-chain", Family: experiment.GaussElimFamily, N: 20, M: 1, UL: 1.2, Seed: 3}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	m, err := makespan.NewEvalCacheAccuracy(scen, stochastic.AccuracyReference).Model(heuristics.RandomSchedule(scen, rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	if n := classicAcrossWorkers(t, "chain", m); n != 0 {
		t.Errorf("chain: %d helpers started, want 0", n)
	}
}
