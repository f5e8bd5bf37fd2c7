package heuristics

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// This file retains the original Model-based HEFT and HBMCT
// implementations verbatim (renamed Reference*). They are the oracle
// the compiled CostModel rewrites are checked against — the
// equivalence harness asserts byte-identical schedules and
// bitwise-equal makespans across every registered workload family —
// and CI's scheduler ratio guard times them. BIL and SDHEFT are pinned
// by frozen digests of their former references' results instead. Keep
// them boring and obviously faithful to the papers — performance work
// happens in the compiled paths only.

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
