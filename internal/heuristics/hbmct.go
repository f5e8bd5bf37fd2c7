package heuristics

import (
	"repro/internal/dag"
	"repro/internal/platform"
)

// HBMCT implements the hybrid heuristic of Sakellariou & Zhao
// (Hyb.BMCT): tasks are ranked as in HEFT, split into groups of
// mutually independent tasks following the rank order, and each group
// is first assigned by minimum completion time and then rebalanced —
// tasks are moved off the processor that finishes the group last while
// that improves the group's completion time (Balanced Minimum
// Completion Time).
//
// Two structural choices change the complexity of the textbook
// algorithm but not its results (the equivalence harness pins them by
// frozen digests):
//
//   - Grouping never materializes the O(n²)-bit reachability closure.
//     Whether a task is connected to the current group is probed by a
//     depth-first search bounded by the group's topological level
//     window (independentGroupsCSR), so peak memory is O(n + e).
//   - Timings are recomputed incrementally. A tentative assignment
//     only affects tasks at or after the moved task in the placement
//     sequence, and those are exactly the current group's members
//     (groups are mutually independent internally and placed
//     group-by-group), so every trial replays just the group from the
//     processor-ready state captured at the group's start instead of
//     replaying the whole sequence.
func HBMCT(scen *platform.Scenario) (Result, error) {
	cm, err := NewCostModel(scen)
	if err != nil {
		return Result{}, err
	}
	n, m := cm.N, cm.M
	csr := cm.csr

	order := cm.RankOrder()
	depth := csr.Depths(cm.order)
	groups := independentGroupsCSR(csr, order, depth)

	proc := make([]int, n)
	for i := range proc {
		proc[i] = -1
	}
	start := make([]float64, n)
	finish := make([]float64, n)
	ready := make([]float64, m)     // committed state incl. the placed group prefix
	readyBase := make([]float64, m) // state at the start of the current group
	scratch := make([]float64, m)   // replay buffer

	// finishOn computes t's eager start/finish on p given the committed
	// predecessor timings and the supplied per-processor ready state —
	// the same arithmetic recompute performs at t's position.
	finishOn := func(t dag.Task, p int, rdy []float64) (st, ft float64) {
		st = rdy[p]
		for k := csr.PredStart[t]; k < csr.PredStart[t+1]; k++ {
			pr := csr.PredAdj[k]
			arr := finish[pr] + cm.Comm(csr.PredEdge[k], proc[pr], p)
			if arr > st {
				st = arr
			}
		}
		ft = st + cm.MeanETC[int(t)*m+p]
		return st, ft
	}

	for _, group := range groups {
		copy(readyBase, ready)
		// Phase 1: initial MCT assignment in rank order. Appending t
		// leaves every earlier timing unchanged, so each trial is a
		// single finishOn evaluation.
		for _, t := range group {
			bestProc, bestFinish := -1, 0.0
			for p := 0; p < m; p++ {
				if _, ft := finishOn(t, p, ready); bestProc < 0 || ft < bestFinish {
					bestProc, bestFinish = p, ft
				}
			}
			proc[t] = bestProc
			st, ft := finishOn(t, bestProc, ready)
			start[t], finish[t] = st, ft
			ready[bestProc] = ft
		}
		if len(group) < 2 || m < 2 {
			continue
		}
		// Phase 2: BMCT rebalancing — move the group's last-finishing
		// task while the group completion time improves. Group members
		// have no predecessors inside the group, so a trial replays
		// only the group from readyBase.
		replayGroup := func() {
			copy(scratch, readyBase)
			for _, t := range group {
				p := proc[t]
				st, ft := finishOn(t, p, scratch)
				start[t], finish[t] = st, ft
				scratch[p] = ft
			}
		}
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
			for p := 0; p < m; p++ {
				if p == orig {
					continue
				}
				proc[worst] = p
				replayGroup()
				if _, ms := groupFinish(); ms < bestMs-1e-12 {
					bestMs, bestProc = ms, p
				}
			}
			proc[worst] = bestProc
			replayGroup()
			if bestProc == orig {
				break
			}
		}
		copy(ready, scratch)
	}

	var ms float64
	for _, f := range finish {
		if f > ms {
			ms = f
		}
	}
	s := buildFromPlacement(cm.pos, m, proc, start)
	return Result{Schedule: s, Makespan: ms}, nil
}

// independentGroupsCSR splits a rank-ordered task list into maximal
// consecutive groups of pairwise independent tasks — the same groups
// the full reachability closure gives (the test oracle
// independentGroups) — without ever materializing an n×n structure. Whether the next task
// is connected to the current group is decided by two depth-first
// probes pruned with topological depths: every ancestor of t lies on a
// strictly smaller depth, every descendant on a strictly larger one,
// so a probe abandons any branch that leaves the group's depth window
// [minDepth, maxDepth]. Visited marks are epoch-stamped, so the probe
// structures are allocated once.
func independentGroupsCSR(csr *dag.CSR, order []dag.Task, depth []int32) [][]dag.Task {
	n := csr.NumTasks
	inGroup := make([]bool, n)
	visited := make([]int32, n)
	var epoch int32
	stack := make([]int32, 0, 64)

	var groups [][]dag.Task
	var cur []dag.Task
	var minDepth, maxDepth int32

	// probe reports whether any task of the current group is reachable
	// from t along pred edges (dir < 0) or succ edges (dir > 0).
	probe := func(t dag.Task, dir int) bool {
		epoch++
		stack = stack[:0]
		if dir < 0 {
			for k := csr.PredStart[t]; k < csr.PredStart[t+1]; k++ {
				stack = append(stack, csr.PredAdj[k])
			}
		} else {
			for k := csr.SuccStart[t]; k < csr.SuccStart[t+1]; k++ {
				stack = append(stack, csr.SuccAdj[k])
			}
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[u] == epoch {
				continue
			}
			visited[u] = epoch
			if dir < 0 {
				if depth[u] < minDepth {
					continue // all further ancestors are shallower still
				}
				if inGroup[u] {
					return true
				}
				for k := csr.PredStart[u]; k < csr.PredStart[u+1]; k++ {
					stack = append(stack, csr.PredAdj[k])
				}
			} else {
				if depth[u] > maxDepth {
					continue // all further descendants are deeper still
				}
				if inGroup[u] {
					return true
				}
				for k := csr.SuccStart[u]; k < csr.SuccStart[u+1]; k++ {
					stack = append(stack, csr.SuccAdj[k])
				}
			}
		}
		return false
	}

	for _, t := range order {
		if len(cur) > 0 && (probe(t, -1) || probe(t, +1)) {
			groups = append(groups, cur)
			for _, u := range cur {
				inGroup[u] = false
			}
			cur = nil
		}
		if len(cur) == 0 {
			minDepth, maxDepth = depth[t], depth[t]
		} else {
			if depth[t] < minDepth {
				minDepth = depth[t]
			}
			if depth[t] > maxDepth {
				maxDepth = depth[t]
			}
		}
		cur = append(cur, t)
		inGroup[t] = true
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}
