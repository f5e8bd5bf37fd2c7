package heuristics

import (
	"repro/internal/platform"
)

// HEFT implements the Heterogeneous Earliest Finish Time heuristic of
// Topcuoglu, Hariri and Wu: tasks are prioritized by upward rank
// (computed with processor-averaged durations and pair-averaged
// communication costs) and each task is placed on the processor that
// minimizes its earliest finish time, with insertion into idle gaps.
//
// This is the compiled implementation — CSR adjacency, precomputed
// communication costs, gap-indexed timelines — and is bit-identical to
// ReferenceHEFT.
func HEFT(scen *platform.Scenario) (Result, error) {
	cm, err := NewCostModel(scen)
	if err != nil {
		return Result{}, err
	}
	return listSchedule(cm), nil
}

// listSchedule is the insertion-based list scheduler HEFT and SDHEFT
// share: each task, in decreasing upward rank, goes to the processor
// minimizing its earliest finish time over the gap-indexed timelines.
// The two heuristics differ only in the statistic their cost model
// holds (mean vs mean + λσ), and the makespan it returns is the
// schedule's length under those costs.
func listSchedule(cm *CostModel) Result {
	csr, m := cm.csr, cm.M
	tls := newTimelines(m)
	start := make([]float64, cm.N)
	finish := make([]float64, cm.N)
	proc := make([]int, cm.N)
	for _, t := range cm.RankOrder() {
		pLo, pHi := csr.PredStart[t], csr.PredStart[t+1]
		row := cm.MeanETC[int(t)*m:]
		bestProc, bestStart, bestFinish := -1, 0.0, 0.0
		for p := 0; p < m; p++ {
			est := 0.0
			for k := pLo; k < pHi; k++ {
				pr := csr.PredAdj[k]
				arr := finish[pr] + cm.Comm(csr.PredEdge[k], proc[pr], p)
				if arr > est {
					est = arr
				}
			}
			dur := row[p]
			st := tls[p].earliest(est, dur)
			if ft := st + dur; bestProc < 0 || ft < bestFinish {
				bestProc, bestStart, bestFinish = p, st, ft
			}
		}
		proc[t] = bestProc
		start[t] = bestStart
		finish[t] = bestFinish
		tls[bestProc].add(slot{start: bestStart, finish: bestFinish})
	}
	var ms float64
	for _, f := range finish {
		if f > ms {
			ms = f
		}
	}
	return Result{Schedule: buildFromPlacement(cm.pos, m, proc, start), Makespan: ms}
}
