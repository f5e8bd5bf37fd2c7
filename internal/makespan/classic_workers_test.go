package makespan_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/runner"
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

// TestClassicAndKernelShareThePoolBudget holds every worker of a
// runner.Pool of GOMAXPROCS workers inside a job while each runs
// Classic, at a worker cap of 8, and the Monte-Carlo kernel on 300
// blocks. No processor is idle, so Classic may start no helper, and
// both must return their serial bits. Once one worker's job returns,
// Classic on a held worker must start a helper again.
func TestClassicAndKernelShareThePoolBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	procs := runtime.GOMAXPROCS(0)
	spec := experiment.CaseSpec{Name: "budget", Family: experiment.JoinFamily, N: 30, M: 8, UL: 1.2, Seed: 3}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	s := heuristics.RandomSchedule(scen, rand.New(rand.NewSource(7)))
	m, err := makespan.NewEvalCacheAccuracy(scen, stochastic.AccuracyFast).Model(s)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.ClassicWorkers(1)
	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.Compile(stochastic.SamplerTable)
	const block, count = 16, 300 * 16
	wantMC := kernel.Realizations(count, 5, schedule.KernelOptions{BlockSize: block, Workers: 1})

	pool := runner.NewPool(procs)
	defer pool.Close()
	var inside, done sync.WaitGroup
	inside.Add(procs)
	done.Add(procs)
	released, hold := make(chan struct{}), make(chan struct{})
	err = pool.Batch(context.Background(), procs, func(i int) error {
		inside.Done()
		inside.Wait()
		rv, helpers := m.ClassicWorkers(8)
		if helpers != 0 {
			t.Errorf("job %d: Classic started %d helpers with every processor held", i, helpers)
		}
		if !sameBits(rv, want) {
			t.Errorf("job %d: Classic differs from its serial bits", i)
		}
		ms := kernel.Realizations(count, 5, schedule.KernelOptions{BlockSize: block})
		for j := range ms {
			if math.Float64bits(ms[j]) != math.Float64bits(wantMC[j]) {
				t.Errorf("job %d: realization %d differs from its serial bits", i, j)
				break
			}
		}
		done.Done()
		done.Wait()
		switch i {
		case 0:
			<-released
			defer close(hold)
			// The pool counts a worker out just after its job returns,
			// so Classic is retried until the processor shows idle.
			for attempt := 0; attempt < 1000; attempt++ {
				rv, helpers := m.ClassicWorkers(8)
				if !sameBits(rv, want) {
					t.Errorf("one worker released: Classic differs from its serial bits")
				}
				if helpers > 0 {
					return nil
				}
			}
			t.Errorf("one worker released: Classic started no helper in 1000 calls")
		case 1:
			close(released)
		default:
			<-hold
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
