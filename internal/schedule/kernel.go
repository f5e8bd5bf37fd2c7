package schedule

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seeds"
	"repro/internal/stochastic"
)

// RealizationKernel is the schedule simulator compiled into a flat
// batch program, the one engine that draws makespan realizations.
// Compilation resolves everything a realization would otherwise
// re-decide per sample:
//
//   - the predecessor lists become CSR-style int32/float64 arrays, so
//     the timing pass walks contiguous memory instead of a slice of
//     structs of interfaces;
//   - Dirac durations and arcs (deterministic tasks, co-located
//     communications) are folded into constants, so the inner loop has
//     zero type switches;
//   - every stochastic duration/arc gets a slot in a
//     structure-of-arrays sample block: the kernel samples all slots
//     for a block of B realizations at once through
//     stochastic.BatchSampler, then times the whole block in one
//     task-major pass, each task's B finish times a contiguous row
//     updated by branch-light loops over the block's sample rows.
//
// Realizations are seeded per block (blockSeeds), so every mode is
// deterministic at any worker count. Exact mode draws each
// realization's variates in the per-sample order: tasks in disjunctive
// topological order, each task's stochastic arcs in predecessor order
// and then its duration, Dirac ones skipped.
type RealizationKernel struct {
	n    int
	mode stochastic.SamplerMode

	order    []int32
	prevProc []int32

	// CSR predecessor arrays indexed by task: the arcs of task t are
	// predTask/predVal/predSlot[predStart[t]:predStart[t+1]].
	predStart []int32
	predTask  []int32
	predVal   []float64 // constant arc weight when predSlot < 0
	predSlot  []int32   // sample-block slot, -1 when constant

	durVal  []float64 // constant duration when durSlot < 0
	durSlot []int32

	// samplers holds one batch sampler per stochastic slot, in the
	// per-sample draw order (tasks in disjunctive topological order,
	// each task's arcs before its duration), so exact-mode
	// realization-major sampling consumes the RNG stream in that
	// order.
	samplers []stochastic.BatchSampler

	workerPool sync.Pool // *kernelWorker, reused across Run calls
}

// DefaultBlockSize is the realization-block granularity of a kernel
// run: realizations are partitioned into blocks of this size, and block
// k draws from an RNG seeded with seeds.NewFamily(seed, "mc-block").Seed(k).
// Because the seeding is per block — not per worker — results are
// identical at every worker count and GOMAXPROCS setting.
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

// KernelOptions tunes a kernel run. The zero value selects
// DefaultBlockSize and GOMAXPROCS workers.
type KernelOptions struct {
	// BlockSize is the number of realizations sampled and timed per
	// batch. Results depend on the block size (each block owns an RNG
	// stream).
	BlockSize int
	// Workers bounds the goroutines of a run; results are identical
	// for every value.
	Workers int
}

func (o KernelOptions) block() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return DefaultBlockSize
}

func (o KernelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Compile builds the batch realization kernel for the simulator's
// schedule. mode selects the samplers: SamplerExact draws every
// variate with its distribution's own Sample in the per-sample order,
// SamplerTable swaps Beta durations/arcs for inverse-CDF table
// lookups — the fast path for bulk Monte Carlo.
func (sim *Simulator) Compile(mode stochastic.SamplerMode) *RealizationKernel {
	n := len(sim.dur)
	k := &RealizationKernel{
		n:         n,
		mode:      mode,
		order:     make([]int32, len(sim.order)),
		prevProc:  make([]int32, n),
		predStart: make([]int32, n+1),
		durVal:    make([]float64, n),
		durSlot:   make([]int32, n),
	}
	for i, t := range sim.order {
		k.order[i] = int32(t)
	}
	for t := 0; t < n; t++ {
		k.prevProc[t] = int32(sim.prevProc[t])
		k.predStart[t+1] = k.predStart[t] + int32(len(sim.preds[t]))
	}
	nArcs := int(k.predStart[n])
	k.predTask = make([]int32, nArcs)
	k.predVal = make([]float64, nArcs)
	k.predSlot = make([]int32, nArcs)

	// Slots are allocated in the per-sample draw order: walk tasks in
	// the disjunctive topological order, arcs before the task's own
	// duration.
	addSlot := func(d stochastic.Dist) int32 {
		k.samplers = append(k.samplers, stochastic.NewBatchSampler(d, mode))
		return int32(len(k.samplers) - 1)
	}
	for _, t := range sim.order {
		base := k.predStart[t]
		for i := range sim.preds[t] {
			pi := &sim.preds[t][i]
			j := base + int32(i)
			k.predTask[j] = int32(pi.pred)
			if _, isPoint := pi.comm.(stochastic.Dirac); isPoint {
				k.predVal[j] = pi.min
				k.predSlot[j] = -1
			} else {
				k.predSlot[j] = addSlot(pi.comm)
			}
		}
		if _, isPoint := sim.dur[t].(stochastic.Dirac); isPoint {
			k.durVal[t] = sim.durMin[t]
			k.durSlot[t] = -1
		} else {
			k.durSlot[t] = addSlot(sim.dur[t])
		}
	}
	return k
}

// Mode returns the sampler mode the kernel was compiled with.
func (k *RealizationKernel) Mode() stochastic.SamplerMode { return k.mode }

// Slots returns the number of stochastic sample slots per realization
// (zero for a fully deterministic schedule).
func (k *RealizationKernel) Slots() int { return len(k.samplers) }

// kernelWorker is the reusable per-goroutine state of a run: one RNG
// (reseeded per block), the structure-of-arrays sample block (one row
// of block realizations per slot), and the finish rows of the timing
// pass (one row of block realizations per task). Workers are pooled on
// the kernel, so steady-state runs do not allocate per realization or
// per call.
type kernelWorker struct {
	rng    *rand.Rand
	block  []float64
	finish []float64
}

// getWorker returns a pooled worker with room for blockLen
// realizations per row.
func (k *RealizationKernel) getWorker(blockLen int) *kernelWorker {
	w, _ := k.workerPool.Get().(*kernelWorker)
	if w == nil {
		w = &kernelWorker{rng: rand.New(rand.NewSource(0))}
	}
	if need := len(k.samplers) * blockLen; cap(w.block) < need {
		w.block = make([]float64, need)
	}
	if need := k.n * blockLen; cap(w.finish) < need {
		w.finish = make([]float64, need)
	}
	return w
}

// sampleBlock fills the structure-of-arrays block with m realizations
// worth of variates. Batch modes sample slot-major (each sampler
// amortizes over the whole block); exact mode samples
// realization-major so the RNG stream follows the per-sample order.
func (k *RealizationKernel) sampleBlock(w *kernelWorker, m int) {
	buf := w.block
	if k.mode == stochastic.SamplerExact {
		for r := 0; r < m; r++ {
			for s := range k.samplers {
				off := s*m + r
				k.samplers[s].SampleN(buf[off:off+1], w.rng)
			}
		}
		return
	}
	for s := range k.samplers {
		k.samplers[s].SampleN(buf[s*m:(s+1)*m], w.rng)
	}
}

// passBlock times the m realizations of the sampled block at once and
// writes their makespans into ms (m long). It walks the tasks in the
// disjunctive order; task t's row ft holds its m finish times:
//
//	ft = row of t's processor predecessor, or zeros
//	for each arc (p, c): ft[r] = max(ft[r], fp[r] + c[r])
//	ft[r] += d[r]; ms[r] = max(ms[r], ft[r])
//
// Per realization these are the operations of a per-sample eager
// execution in the same order, so identical samples produce
// bit-identical makespans. Constant arcs and durations use a scalar in
// place of a sample row.
func (k *RealizationKernel) passBlock(w *kernelWorker, ms []float64) {
	m := len(ms)
	buf := w.block
	finish := w.finish[:k.n*m]
	// Rows are resliced to m so the loops below run without bounds
	// checks.
	row := func(i int) []float64 { return finish[i*m : (i+1)*m][:m] }
	slot := func(s int) []float64 { return buf[s*m : (s+1)*m][:m] }
	clear(ms)
	for _, t := range k.order {
		ft := row(int(t))
		if p := k.prevProc[t]; p >= 0 {
			copy(ft, row(int(p)))
		} else {
			clear(ft)
		}
		for j := k.predStart[t]; j < k.predStart[t+1]; j++ {
			fp := row(int(k.predTask[j]))
			if s := int(k.predSlot[j]); s >= 0 {
				c := slot(s)
				for r := range ms {
					if arr := fp[r] + c[r]; arr > ft[r] {
						ft[r] = arr
					}
				}
			} else {
				c := k.predVal[j]
				for r := range ms {
					if arr := fp[r] + c; arr > ft[r] {
						ft[r] = arr
					}
				}
			}
		}
		if s := int(k.durSlot[t]); s >= 0 {
			d := slot(s)
			for r := range ms {
				f := ft[r] + d[r]
				ft[r] = f
				if f > ms[r] {
					ms[r] = f
				}
			}
		} else {
			d := k.durVal[t]
			for r := range ms {
				f := ft[r] + d
				ft[r] = f
				if f > ms[r] {
					ms[r] = f
				}
			}
		}
	}
}

// Realizations draws count makespan realizations. Deterministic for a
// fixed (count, seed, block size, mode) at any worker count.
func (k *RealizationKernel) Realizations(count int, seed int64, opt KernelOptions) []float64 {
	out := make([]float64, count)
	k.RealizationsInto(out, seed, opt)
	return out
}

// RealizationsInto is Realizations writing into a caller-owned slice,
// for steady-state loops that want zero per-call sample allocations.
// Whole blocks fan out over the option's workers, each block timing its
// realizations straight into its own window of out.
func (k *RealizationKernel) RealizationsInto(out []float64, seed int64, opt KernelOptions) {
	count := len(out)
	if count == 0 {
		return
	}
	block := opt.block()
	bs := blockSeeds(count, block, seed)
	workers := min(opt.workers(), len(bs))
	var next int64
	runWorker := func() {
		// No block holds more than count realizations, so a block size
		// beyond count sizes the buffers by what is drawn.
		w := k.getWorker(min(block, count))
		defer k.workerPool.Put(w)
		for {
			kb := int(atomic.AddInt64(&next, 1)) - 1
			if kb >= len(bs) {
				return
			}
			lo := kb * block
			ms := out[lo:min(lo+block, count)]
			w.rng.Seed(bs[kb])
			k.sampleBlock(w, len(ms))
			k.passBlock(w, ms)
		}
	}
	if workers <= 1 {
		runWorker()
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker()
		}()
	}
	wg.Wait()
}

// Empirical draws count realizations and wraps them as an empirical
// distribution.
func (k *RealizationKernel) Empirical(count int, seed int64, opt KernelOptions) *stochastic.Empirical {
	return stochastic.NewEmpirical(k.Realizations(count, seed, opt))
}
