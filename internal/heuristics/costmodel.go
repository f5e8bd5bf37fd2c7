package heuristics

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// topology bundles the flattened graph structure every compiled
// heuristic shares: CSR adjacency with edge ids, the deterministic
// topological order (and each task's position in it, the tie-break for
// buildFromPlacement), and the platform's communication classes.
type topology struct {
	csr   *dag.CSR
	order []dag.Task
	pos   []int32
	cc    platform.CommClasses
}

func newTopology(scen *platform.Scenario) (*topology, error) {
	order, err := scen.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int32, len(order))
	for i, t := range order {
		pos[t] = int32(i)
	}
	return &topology{
		csr:   scen.G.CSR(),
		order: order,
		pos:   pos,
		cc:    scen.P.CommClasses(),
	}, nil
}

// CostModel is the compiled counterpart of Model: every quantity the
// list heuristics consult in their inner loops — mean ETC entries,
// processor-averaged durations, placement-agnostic and concrete mean
// communication costs — is precomputed once into flat arrays indexed
// by task, edge id and communication class, and the DAG itself is
// flattened to CSR form. Heuristics built on it run without map
// lookups, distribution construction or per-query allocations, yet
// produce bit-identical schedules to the Model-based Reference*
// implementations: every derived value is computed with the same
// floating-point operations in the same order, which the equivalence
// harness enforces across all registered workload families.
type CostModel struct {
	Scen *platform.Scenario
	N, M int

	*topology

	MeanETC []float64 // n×m row-major mean durations: entry (t,p) at t*M+p
	AvgDur  []float64 // mean duration averaged over processors

	EdgeAvgComm []float64 // per edge id: placement-agnostic mean comm (Model.AvgComm)

	classComm [][]float64 // per comm class, per edge id: concrete mean comm
}

// NewCostModel compiles the scenario's cost model. It fails only on a
// cyclic graph.
func NewCostModel(scen *platform.Scenario) (*CostModel, error) {
	topo, err := newTopology(scen)
	if err != nil {
		return nil, err
	}
	n, m := scen.G.N(), scen.P.M
	cm := &CostModel{
		Scen:     scen,
		N:        n,
		M:        m,
		topology: topo,
		MeanETC:  make([]float64, n*m),
		AvgDur:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		row := cm.MeanETC[i*m : (i+1)*m]
		var sum float64
		for j := 0; j < m; j++ {
			row[j] = scen.MeanTask(dag.Task(i), j)
			sum += row[j]
		}
		cm.AvgDur[i] = sum / float64(m)
	}
	// Placement-agnostic per-edge communication means: the same
	// expression Model.AvgComm evaluates per query, hoisted out of the
	// rank loops.
	cm.EdgeAvgComm = make([]float64, topo.csr.NumEdges)
	if m > 1 {
		avgTau, avgLat := scen.P.AvgTau(), scen.P.AvgLat()
		for e, vol := range topo.csr.Vol {
			cm.EdgeAvgComm[e] = scen.MeanAt(avgLat + vol*avgTau)
		}
	}
	cm.classComm = scen.BatchCommMeans(topo.cc, topo.csr.Vol)
	return cm, nil
}

// Comm returns the mean communication cost of edge e between
// processors pi and pj (0 when co-located) — the compiled form of
// Model.MeanComm.
func (cm *CostModel) Comm(e int32, pi, pj int) float64 {
	if c := cm.cc.Class[pi*cm.M+pj]; c >= 0 {
		return cm.classComm[c][e]
	}
	return 0
}

// UpwardRanks returns HEFT's rank_u over the compiled model (the
// topological order was already validated by NewCostModel, so no
// error).
func (cm *CostModel) UpwardRanks() []float64 {
	csr := cm.csr
	rank := make([]float64, cm.N)
	for i := cm.N - 1; i >= 0; i-- {
		t := cm.order[i]
		best := 0.0
		for k := csr.SuccStart[t]; k < csr.SuccStart[t+1]; k++ {
			cand := cm.EdgeAvgComm[csr.SuccEdge[k]] + rank[csr.SuccAdj[k]]
			if cand > best {
				best = cand
			}
		}
		rank[t] = cm.AvgDur[t] + best
	}
	return rank
}

// RankOrder returns the tasks sorted by decreasing upward rank (ties
// by topological position), matching Model.RankOrder.
func (cm *CostModel) RankOrder() []dag.Task {
	return sortByRankDesc(cm.UpwardRanks(), cm.pos)
}

// placeByInsertion is the insertion-based placement loop HEFT and
// SDHEFT share: each task, in the given priority order, goes to the
// processor minimizing its earliest finish time over the gap-indexed
// timelines, with cost the flat n×m per-(task,processor) duration
// table and comm the per-edge communication cost for a concrete
// processor pair. The two heuristics differ only in which statistic
// fills those tables (mean vs mean+λσ), so the loop itself must stay
// identical — any tie-break or timeline change propagates to both.
func placeByInsertion(csr *dag.CSR, m int, tasks []dag.Task, cost []float64,
	comm func(e int32, pi, pj int) float64) (proc []int, start, finish []float64) {
	n := len(tasks)
	tls := newTimelines(m)
	start = make([]float64, n)
	finish = make([]float64, n)
	proc = make([]int, n)
	for _, t := range tasks {
		pLo, pHi := csr.PredStart[t], csr.PredStart[t+1]
		row := cost[int(t)*m:]
		bestProc, bestStart, bestFinish := -1, 0.0, 0.0
		for p := 0; p < m; p++ {
			est := 0.0
			for k := pLo; k < pHi; k++ {
				pr := csr.PredAdj[k]
				arr := finish[pr] + comm(csr.PredEdge[k], proc[pr], p)
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
	return proc, start, finish
}

// sortByRankDesc sorts tasks 0..n-1 by decreasing rank — the shared
// priority ordering of HEFT-family heuristics. Ties fall back to
// topological position so the order stays precedence-compatible even
// when zero-duration tasks produce equal ranks across an edge.
func sortByRankDesc(rank []float64, pos []int32) []dag.Task {
	tasks := make([]dag.Task, len(rank))
	for i := range tasks {
		tasks[i] = dag.Task(i)
	}
	sort.SliceStable(tasks, func(a, b int) bool {
		ra, rb := rank[tasks[a]], rank[tasks[b]]
		if ra != rb { //reprovet:allow floateq comparator falls through to a stable index tie-break only on exact equality
			return ra > rb
		}
		return pos[tasks[a]] < pos[tasks[b]]
	})
	return tasks
}
