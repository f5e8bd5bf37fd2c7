package heuristics

import (
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file retains the original Model-based heuristic implementations
// verbatim (renamed Reference*). They are the oracle the compiled
// CostModel rewrites are checked against: the equivalence harness
// asserts byte-identical schedules and bitwise-equal makespans across
// every registered workload family. Keep them boring and obviously
// faithful to the papers — performance work happens in the compiled
// paths only.

// slot is a busy interval on a processor, used by insertion-based
// placement.
type slot struct{ start, finish float64 }

// insertionStart returns the earliest start >= est on a processor whose
// busy slots are sorted by start time, allowing insertion into idle
// gaps large enough for dur.
func insertionStart(slots []slot, est, dur float64) float64 {
	cur := est
	for _, s := range slots {
		if almostLE(cur+dur, s.start) {
			return cur
		}
		if s.finish > cur {
			cur = s.finish
		}
	}
	return cur
}

// insertSlot adds a busy interval keeping the slice sorted by start.
func insertSlot(slots []slot, s slot) []slot {
	idx := sort.Search(len(slots), func(i int) bool { return slots[i].start >= s.start })
	slots = append(slots, slot{})
	copy(slots[idx+1:], slots[idx:])
	slots[idx] = s
	return slots
}

// builder incrementally constructs an eager schedule while tracking
// start/finish times under mean durations. Tasks must be fed in a
// precedence-compatible order.
type builder struct {
	model  *Model
	sched  *schedule.Schedule
	start  []float64
	finish []float64
	ready  []float64 // per-processor next-free time (append mode)
}

func newBuilder(m *Model) *builder {
	n := m.Scen.G.N()
	b := &builder{
		model:  m,
		sched:  schedule.New(n, m.Scen.P.M),
		start:  make([]float64, n),
		finish: make([]float64, n),
		ready:  make([]float64, m.Scen.P.M),
	}
	for i := range b.start {
		b.start[i] = -1
	}
	return b
}

// estAppend returns the earliest start of t on p in append mode: data
// arrival from all predecessors plus the processor's free time.
func (b *builder) estAppend(t dag.Task, p int) float64 {
	est := b.ready[p]
	for _, pr := range b.model.Scen.G.Pred(t) {
		arr := b.finish[pr] + b.model.MeanComm(pr, t, b.sched.Proc[pr], p)
		if arr > est {
			est = arr
		}
	}
	return est
}

// place commits t to p with the given start time (append mode).
func (b *builder) place(t dag.Task, p int, start float64) {
	b.sched.Assign(t, p)
	b.start[t] = start
	b.finish[t] = start + b.model.MeanETC[t][p]
	if b.finish[t] > b.ready[p] {
		b.ready[p] = b.finish[t]
	}
}

// makespan returns the latest finish among placed tasks.
func (b *builder) makespan() float64 {
	var ms float64
	for i, st := range b.start {
		if st >= 0 && b.finish[i] > ms {
			ms = b.finish[i]
		}
	}
	return ms
}

// ReferenceHEFT is the original HEFT implementation (Topcuoglu, Hariri
// and Wu): tasks are prioritized by upward rank (computed with
// processor-averaged durations and pair-averaged communication costs)
// and each task is placed on the processor that minimizes its earliest
// finish time, with insertion into idle gaps.
func ReferenceHEFT(scen *platform.Scenario) (Result, error) {
	m := NewModel(scen)
	order, err := m.RankOrder()
	if err != nil {
		return Result{}, err
	}
	n := scen.G.N()
	nProc := scen.P.M

	slots := make([][]slot, nProc)
	start := make([]float64, n)
	finish := make([]float64, n)
	proc := make([]int, n)

	for _, t := range order {
		bestProc, bestStart, bestFinish := -1, 0.0, 0.0
		for p := 0; p < nProc; p++ {
			est := 0.0
			for _, pr := range scen.G.Pred(t) {
				arr := finish[pr] + m.MeanComm(pr, t, proc[pr], p)
				if arr > est {
					est = arr
				}
			}
			dur := m.MeanETC[t][p]
			st := insertionStart(slots[p], est, dur)
			ft := st + dur
			if bestProc < 0 || ft < bestFinish {
				bestProc, bestStart, bestFinish = p, st, ft
			}
		}
		proc[t] = bestProc
		start[t] = bestStart
		finish[t] = bestFinish
		slots[bestProc] = insertSlot(slots[bestProc], slot{start: bestStart, finish: bestFinish})
	}

	pos, err := topoPositions(scen.G)
	if err != nil {
		return Result{}, err
	}
	s := buildFromPlacement(pos, nProc, proc, start)
	var ms float64
	for _, f := range finish {
		if f > ms {
			ms = f
		}
	}
	return Result{Schedule: s, Makespan: ms}, nil
}

// ReferenceBIL is the original Best Imaginary Level implementation
// (Oh & Ha) for unrelated processors. The basic imaginary level of
// task i on processor p is
//
//	BIL(i,p) = w(i,p) + max_{k ∈ succ(i)} min( BIL(k,p),
//	                                           min_{q≠p} BIL(k,q) + c̄(i,k) )
//
// computed bottom-up. At every step the ready task with the highest
// priority — the k-th smallest of its basic imaginary makespans
// BIM(i,p) = EST(i,p) + BIL(i,p), with k = min(#ready, m) — is selected
// and placed on the processor minimizing its (revised) BIM. When more
// tasks are ready than processors, the BIM is inflated by the expected
// queuing factor w(i,p)·(#ready/m − 1) as in the original paper.
func ReferenceBIL(scen *platform.Scenario) (Result, error) {
	m := NewModel(scen)
	g := scen.G
	n := g.N()
	nProc := scen.P.M

	order, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}

	// Bottom-up computation of BIL(i,p).
	bil := make([][]float64, n)
	for i := range bil {
		bil[i] = make([]float64, nProc)
	}
	for idx := len(order) - 1; idx >= 0; idx-- {
		t := order[idx]
		for p := 0; p < nProc; p++ {
			best := 0.0
			for _, k := range g.Succ(t) {
				// Cheapest continuation of k: stay on p (no comm) or the
				// best other processor plus the communication cost.
				minOther := -1.0
				for q := 0; q < nProc; q++ {
					if q == p {
						continue
					}
					if minOther < 0 || bil[k][q] < minOther {
						minOther = bil[k][q]
					}
				}
				cont := bil[k][p]
				if minOther >= 0 {
					if alt := minOther + m.AvgComm(t, k); alt < cont {
						cont = alt
					}
				}
				if cont > best {
					best = cont
				}
			}
			bil[t][p] = m.MeanETC[t][p] + best
		}
	}

	// List scheduling driven by BIM.
	b := newBuilder(m)
	indeg := make([]int, n)
	var ready []dag.Task
	for t := 0; t < n; t++ {
		indeg[t] = len(g.Pred(dag.Task(t)))
		if indeg[t] == 0 {
			ready = append(ready, dag.Task(t))
		}
	}
	bims := make([]float64, nProc)
	for len(ready) > 0 {
		k := len(ready)
		if k > nProc {
			k = nProc
		}
		// Select the ready task with the largest k-th smallest BIM.
		bestIdx := -1
		bestPriority := 0.0
		for idx, t := range ready {
			for p := 0; p < nProc; p++ {
				bims[p] = b.estAppend(t, p) + bil[t][p]
			}
			prio := kthSmallest(bims, k)
			if bestIdx < 0 || prio > bestPriority ||
				(prio == bestPriority && t < ready[bestIdx]) { //reprovet:allow floateq deterministic tie-break on exactly equal priorities (paper rule)
				bestIdx, bestPriority = idx, prio
			}
		}
		t := ready[bestIdx]
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		// Processor choice: minimize the (revised) BIM.
		overload := float64(len(ready)+1)/float64(nProc) - 1
		bestProc := -1
		bestVal := 0.0
		bestStart := 0.0
		for p := 0; p < nProc; p++ {
			est := b.estAppend(t, p)
			val := est + bil[t][p]
			if overload > 0 {
				val += m.MeanETC[t][p] * overload
			}
			if bestProc < 0 || val < bestVal {
				bestProc, bestVal, bestStart = p, val, est
			}
		}
		b.place(t, bestProc, bestStart)
		for _, s := range g.Succ(t) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return Result{Schedule: b.sched, Makespan: b.makespan()}, nil
}

// kthSmallest returns the k-th smallest value of xs (1-based) without
// mutating xs; k is clamped to [1, len(xs)]. Selection by repeated min
// extraction on a copy — nProc is small.
func kthSmallest(xs []float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	tmp := append([]float64(nil), xs...)
	for i := 0; i < k; i++ {
		minIdx := i
		for j := i + 1; j < len(tmp); j++ {
			if tmp[j] < tmp[minIdx] {
				minIdx = j
			}
		}
		tmp[i], tmp[minIdx] = tmp[minIdx], tmp[i]
	}
	return tmp[k-1]
}

// ReferenceHBMCT is the original hybrid heuristic implementation
// (Sakellariou & Zhao, Hyb.BMCT): tasks are ranked as in HEFT, split
// into groups of mutually independent tasks following the rank order,
// and each group is first assigned by minimum completion time and then
// rebalanced — tasks are moved off the processor that finishes the
// group last while that improves the group's completion time (Balanced
// Minimum Completion Time). It materializes the full n×n reachability
// bitset and replays the entire eager execution after every tentative
// move; HBMCT computes identical schedules with level-bounded
// reachability probes and group-local incremental timing.
func ReferenceHBMCT(scen *platform.Scenario) (Result, error) {
	m := NewModel(scen)
	g := scen.G
	n := g.N()
	nProc := scen.P.M

	order, err := m.RankOrder()
	if err != nil {
		return Result{}, err
	}
	reach := reachability(g)
	groups := independentGroups(order, reach)

	proc := make([]int, n)
	for i := range proc {
		proc[i] = -1
	}
	// seq is the global placement order (rank order), used to recompute
	// eager timings after every tentative move.
	var seq []dag.Task
	start := make([]float64, n)
	finish := make([]float64, n)

	// recompute replays the eager execution of seq under the current
	// assignment, in append mode per processor.
	recompute := func() float64 {
		ready := make([]float64, nProc)
		var ms float64
		for _, t := range seq {
			p := proc[t]
			st := ready[p]
			for _, pr := range g.Pred(t) {
				arr := finish[pr] + m.MeanComm(pr, t, proc[pr], p)
				if arr > st {
					st = arr
				}
			}
			start[t] = st
			finish[t] = st + m.MeanETC[t][p]
			ready[p] = finish[t]
			if finish[t] > ms {
				ms = finish[t]
			}
		}
		return ms
	}

	for _, group := range groups {
		// Phase 1: initial MCT assignment in rank order.
		for _, t := range group {
			seq = append(seq, t)
			bestProc, bestFinish := -1, 0.0
			for p := 0; p < nProc; p++ {
				proc[t] = p
				recompute()
				if bestProc < 0 || finish[t] < bestFinish {
					bestProc, bestFinish = p, finish[t]
				}
			}
			proc[t] = bestProc
			recompute()
		}
		if len(group) < 2 || nProc < 2 {
			continue
		}
		// Phase 2: BMCT rebalancing — move the group's last-finishing
		// task while the group completion time improves.
		groupFinish := func() (dag.Task, float64) {
			var worst dag.Task = -1
			var ms float64
			for _, t := range group {
				if finish[t] > ms {
					ms, worst = finish[t], t
				}
			}
			return worst, ms
		}
		maxMoves := 2 * len(group)
		for move := 0; move < maxMoves; move++ {
			worst, cur := groupFinish()
			if worst < 0 {
				break // every task finishes at 0: nothing to improve
			}
			bestProc := proc[worst]
			bestMs := cur
			orig := proc[worst]
			for p := 0; p < nProc; p++ {
				if p == orig {
					continue
				}
				proc[worst] = p
				recompute()
				if _, ms := groupFinish(); ms < bestMs-1e-12 {
					bestMs, bestProc = ms, p
				}
			}
			proc[worst] = bestProc
			recompute()
			if bestProc == orig {
				break
			}
		}
	}

	ms := recompute()
	pos, err := topoPositions(g)
	if err != nil {
		return Result{}, err
	}
	s := buildFromPlacement(pos, nProc, proc, start)
	return Result{Schedule: s, Makespan: ms}, nil
}

// reachability computes ancestor/descendant closure as bitsets:
// reach[i] has bit j set when there is a path i → j. O(n²) bits — the
// reference grouping oracle only; the compiled HBMCT path never
// materializes it.
func reachability(g *dag.Graph) [][]uint64 {
	n := g.N()
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for i := range reach {
		reach[i] = make([]uint64, words)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return reach
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		for _, s := range g.Succ(t) {
			reach[t][int(s)/64] |= 1 << (uint(s) % 64)
			for w := 0; w < words; w++ {
				reach[t][w] |= reach[s][w]
			}
		}
	}
	return reach
}

// connected reports whether a and b are related by a path in either
// direction.
func connected(reach [][]uint64, a, b dag.Task) bool {
	if reach[a][int(b)/64]&(1<<(uint(b)%64)) != 0 {
		return true
	}
	return reach[b][int(a)/64]&(1<<(uint(a)%64)) != 0
}

// independentGroups splits a rank-ordered task list into maximal
// consecutive groups of pairwise independent tasks.
func independentGroups(order []dag.Task, reach [][]uint64) [][]dag.Task {
	var groups [][]dag.Task
	var cur []dag.Task
	for _, t := range order {
		dependent := false
		for _, u := range cur {
			if connected(reach, t, u) {
				dependent = true
				break
			}
		}
		if dependent {
			groups = append(groups, cur)
			cur = nil
		}
		cur = append(cur, t)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// ReferenceSDHEFT is the original implementation of the
// robustness-aware list heuristic the paper proposes as future work
// (§VIII): every cost in the HEFT machinery — the upward ranks and the
// finish-time objective — is replaced by the pessimistic estimate
// mean + lambda·σ of the duration's distribution. See SDHEFT for the
// full discussion.
func ReferenceSDHEFT(scen *platform.Scenario, lambda float64) (Result, error) {
	if lambda < 0 {
		lambda = 0
	}
	g := scen.G
	n := g.N()
	nProc := scen.P.M

	// Pessimistic cost tables: mean + λσ.
	cost := make([][]float64, n)
	avgCost := make([]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, nProc)
		var sum float64
		for p := 0; p < nProc; p++ {
			d := scen.TaskDist(dag.Task(t), p)
			row[p] = d.Mean() + lambda*math.Sqrt(d.Variance())
			sum += row[p]
		}
		cost[t] = row
		avgCost[t] = sum / float64(nProc)
	}
	avgTau, avgLat := scen.P.AvgTau(), scen.P.AvgLat()
	commCost := func(from, to dag.Task, pi, pj int) float64 {
		d := scen.CommDist(from, to, pi, pj)
		return d.Mean() + lambda*math.Sqrt(d.Variance())
	}
	avgCommCost := func(from, to dag.Task) float64 {
		if nProc <= 1 {
			return 0
		}
		d := scen.DurationAt(avgLat + g.Volume(from, to)*avgTau)
		return d.Mean() + lambda*math.Sqrt(d.Variance())
	}

	// Upward ranks on pessimistic costs.
	order, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	pos := make([]int32, n)
	for i, t := range order {
		pos[t] = int32(i)
	}
	rank := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, s := range g.Succ(t) {
			if cand := avgCommCost(t, s) + rank[s]; cand > best {
				best = cand
			}
		}
		rank[t] = avgCost[t] + best
	}
	tasks := sortByRankDesc(rank, pos)

	// Insertion-based placement minimizing the pessimistic finish time.
	slots := make([][]slot, nProc)
	start := make([]float64, n)
	finish := make([]float64, n)
	proc := make([]int, n)
	for _, t := range tasks {
		bestProc, bestStart, bestFinish := -1, 0.0, 0.0
		for p := 0; p < nProc; p++ {
			est := 0.0
			for _, pr := range g.Pred(t) {
				arr := finish[pr] + commCost(pr, t, proc[pr], p)
				if arr > est {
					est = arr
				}
			}
			dur := cost[t][p]
			st := insertionStart(slots[p], est, dur)
			if ft := st + dur; bestProc < 0 || ft < bestFinish {
				bestProc, bestStart, bestFinish = p, st, ft
			}
		}
		proc[t] = bestProc
		start[t] = bestStart
		finish[t] = bestFinish
		slots[bestProc] = insertSlot(slots[bestProc], slot{start: bestStart, finish: bestFinish})
	}
	var ms float64
	for _, f := range finish {
		if f > ms {
			ms = f
		}
	}
	return Result{Schedule: buildFromPlacement(pos, nProc, proc, start), Makespan: ms}, nil
}
