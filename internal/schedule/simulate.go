package schedule

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/seeds"
	"repro/internal/stochastic"
)

// Timing is the outcome of executing a schedule with concrete
// durations.
type Timing struct {
	Start, Finish []float64
	Makespan      float64
}

// predInfo is a precedence arc seen from the consumer side, carrying
// the communication-time distribution between the assigned processors.
type predInfo struct {
	pred dag.Task
	comm stochastic.Dist // Dirac(0) for co-located tasks
	mean float64
	min  float64
	max  float64
}

// Simulator evaluates one schedule repeatedly: it freezes the
// disjunctive topological order and the per-task / per-arc duration
// distributions so that each realization is a single O(V+E) pass with
// only the sampling as per-iteration work. This is the engine behind
// the paper's 100 000-realization ground-truth distributions.
//
// Simulator is the per-sample reference engine; Compile builds the
// batch kernel that runs the same realizations without per-sample
// interface dispatch.
type Simulator struct {
	scen     *platform.Scenario
	sched    *Schedule
	order    []dag.Task
	prevProc []dag.Task
	dur      []stochastic.Dist
	durMean  []float64
	durMin   []float64
	durMax   []float64
	preds    [][]predInfo

	// The deterministic timings are immutable per simulator, so they
	// are computed once on first use instead of allocating fresh
	// start/finish vectors on every call.
	minOnce, meanOnce, maxOnce sync.Once
	minTiming                  Timing
	meanTiming                 Timing
	maxTiming                  Timing
}

// NewSimulator validates the scenario's uncertainty levels
// (platform.Scenario.CheckLevels) and the schedule against the
// scenario's graph, and precomputes the realization machinery.
// Validation and the disjunctive topological order come from the
// compiled CSR builder — one O(n+e) pass that reproduces the map-based
// Disjunctive(g).TopoOrder() order bit-for-bit, so the realization
// streams (which draw in order) are unchanged.
func NewSimulator(scen *platform.Scenario, s *Schedule) (*Simulator, error) {
	if err := scen.CheckLevels(); err != nil {
		return nil, err
	}
	d, err := s.CompileDisjunctive(scen.G.SortedCSR())
	if err != nil {
		return nil, err
	}
	order := d.Order
	n := scen.G.N()
	sim := &Simulator{
		scen:     scen,
		sched:    s,
		order:    order,
		prevProc: s.PrevOnProc(),
		dur:      make([]stochastic.Dist, n),
		durMean:  make([]float64, n),
		durMin:   make([]float64, n),
		durMax:   make([]float64, n),
		preds:    make([][]predInfo, n),
	}
	for t := 0; t < n; t++ {
		task := dag.Task(t)
		d := scen.TaskDist(task, s.Proc[t])
		sim.dur[t] = d
		sim.durMean[t] = d.Mean()
		sim.durMin[t], sim.durMax[t] = d.Support()
		for _, p := range scen.G.Pred(task) {
			cd := scen.CommDist(p, task, s.Proc[p], s.Proc[t])
			min, max := cd.Support()
			sim.preds[t] = append(sim.preds[t], predInfo{
				pred: p, comm: cd, mean: cd.Mean(), min: min, max: max,
			})
		}
	}
	return sim, nil
}

// Schedule returns the schedule being simulated.
func (sim *Simulator) Schedule() *Schedule { return sim.sched }

// Scenario returns the underlying scenario.
func (sim *Simulator) Scenario() *platform.Scenario { return sim.scen }

// durationKind selects which value each duration takes during a
// timing pass.
type durationKind int

const (
	durMin durationKind = iota
	durMean
	durMax
	durSample
)

// timing runs the eager execution once.
func (sim *Simulator) timing(kind durationKind, rng *rand.Rand, buf []float64) Timing {
	n := len(sim.dur)
	var start []float64
	if cap(buf) >= 2*n {
		start = buf[:2*n]
	} else {
		start = make([]float64, 2*n)
	}
	finish := start[n:]
	start = start[:n]
	var makespan float64
	for _, t := range sim.order {
		st := 0.0
		if p := sim.prevProc[t]; p >= 0 {
			st = finish[p]
		}
		for i := range sim.preds[t] {
			pi := &sim.preds[t][i]
			var c float64
			switch kind {
			case durMin:
				c = pi.min
			case durMean:
				c = pi.mean
			case durMax:
				c = pi.max
			default:
				if _, isPoint := pi.comm.(stochastic.Dirac); isPoint {
					c = pi.min
				} else {
					c = pi.comm.Sample(rng)
				}
			}
			arr := finish[pi.pred] + c
			if arr > st {
				st = arr
			}
		}
		var d float64
		switch kind {
		case durMin:
			d = sim.durMin[t]
		case durMean:
			d = sim.durMean[t]
		case durMax:
			d = sim.durMax[t]
		default:
			if _, isPoint := sim.dur[t].(stochastic.Dirac); isPoint {
				d = sim.durMin[t]
			} else {
				d = sim.dur[t].Sample(rng)
			}
		}
		start[t] = st
		finish[t] = st + d
		if finish[t] > makespan {
			makespan = finish[t]
		}
	}
	return Timing{Start: start, Finish: finish, Makespan: makespan}
}

// MinTiming executes the schedule with every duration at its minimum
// (the deterministic base case). The timing is computed once and
// cached; treat the returned vectors as read-only.
func (sim *Simulator) MinTiming() Timing {
	sim.minOnce.Do(func() { sim.minTiming = sim.timing(durMin, nil, nil) })
	return sim.minTiming
}

// MeanTiming executes the schedule with every duration at its mean;
// this is the approximation the paper uses for the slack metrics. The
// timing is computed once and cached; treat the returned vectors as
// read-only.
func (sim *Simulator) MeanTiming() Timing {
	sim.meanOnce.Do(func() { sim.meanTiming = sim.timing(durMean, nil, nil) })
	return sim.meanTiming
}

// MaxTiming executes the schedule with every duration at the top of
// its support: the worst-case makespan, and the upper bound of every
// realization (the makespan is monotone in the durations). The timing
// is computed once and cached; treat the returned vectors as
// read-only.
func (sim *Simulator) MaxTiming() Timing {
	sim.maxOnce.Do(func() { sim.maxTiming = sim.timing(durMax, nil, nil) })
	return sim.maxTiming
}

// Realize samples one realization of every duration and returns the
// resulting makespan.
func (sim *Simulator) Realize(rng *rand.Rand) float64 {
	return sim.timing(durSample, rng, nil).Makespan
}

// RealizeTiming is Realize but returns the full start/finish vectors;
// buf, when at least 2n long, avoids allocations.
func (sim *Simulator) RealizeTiming(rng *rand.Rand, buf []float64) Timing {
	return sim.timing(durSample, rng, buf)
}

// DefaultBlockSize is the realization-block granularity shared by the
// per-sample engine and the compiled kernel: realizations are
// partitioned into blocks of this size, and block k draws from an RNG
// seeded with seeds.NewFamily(seed, "mc-block").Seed(k). Because the
// seeding is per block — not per worker — results are identical at
// every worker count and GOMAXPROCS setting, and the kernel's exact
// mode reproduces Realizations bit-for-bit at this block size.
const DefaultBlockSize = 256

// blockSeeds precomputes the per-block RNG seeds for count
// realizations in blocks of size block.
func blockSeeds(count, block int, seed int64) []int64 {
	fam := seeds.NewFamily(seed, "mc-block")
	nb := count / block
	if count%block != 0 {
		nb++ // a partial last block; no overflow for any block size
	}
	out := make([]int64, nb)
	for k := range out {
		out[k] = fam.Seed(k)
	}
	return out
}

// Realizations draws count makespan realizations with the per-sample
// reference engine, distributing whole blocks of DefaultBlockSize
// realizations over GOMAXPROCS goroutines. Each block derives its own
// RNG stream from seed, so results are deterministic for a given
// (count, seed) pair at any worker count.
func (sim *Simulator) Realizations(count int, seed int64) []float64 {
	out := make([]float64, count)
	if count == 0 {
		return out
	}
	bs := blockSeeds(count, DefaultBlockSize, seed)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(bs) {
		workers = len(bs)
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			buf := make([]float64, 2*len(sim.dur))
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= len(bs) {
					return
				}
				rng.Seed(bs[k])
				lo := k * DefaultBlockSize
				hi := lo + DefaultBlockSize
				if hi > count {
					hi = count
				}
				for i := lo; i < hi; i++ {
					out[i] = sim.timing(durSample, rng, buf).Makespan
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// Empirical draws count realizations and wraps them as an empirical
// distribution.
func (sim *Simulator) Empirical(count int, seed int64) *stochastic.Empirical {
	return stochastic.NewEmpirical(sim.Realizations(count, seed))
}
