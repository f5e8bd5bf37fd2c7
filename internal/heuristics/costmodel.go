package heuristics

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/stochastic"
)

// CostModel is the compiled counterpart of Model: every quantity the
// list heuristics consult in their inner loops — ETC entries,
// processor-averaged durations, placement-agnostic and concrete
// communication costs — is precomputed once into flat arrays indexed
// by task, edge id and communication class, and the DAG itself is
// flattened to CSR form. Each cost is one statistic of its duration
// law: the mean for HEFT, BIL and HBMCT, mean + λσ for SDHEFT.
// Heuristics built on it run without map lookups, distribution
// construction or per-query allocations, yet produce bit-identical
// schedules to the Model-based Reference* implementations: every
// derived value is computed with the same floating-point operations in
// the same order, which the equivalence harness enforces across all
// registered workload families.
type CostModel struct {
	Scen *platform.Scenario
	N, M int

	csr   *dag.CSR
	order []dag.Task // deterministic topological order
	pos   []int32    // each task's index in order: buildFromPlacement's tie-break
	cc    platform.CommClasses

	MeanETC []float64 // n×m row-major task costs (the model's statistic): entry (t,p) at t*M+p
	AvgDur  []float64 // task cost averaged over processors

	EdgeAvgComm []float64 // per edge id: placement-agnostic comm cost (Model.AvgComm for the mean)

	classComm [][]float64 // per comm class, per edge id: concrete comm cost
}

// NewCostModel compiles the scenario's mean cost model. It fails only
// on a cyclic graph.
func NewCostModel(scen *platform.Scenario) (*CostModel, error) {
	return newCostModel(scen, stochastic.Dist.Mean, scen.MeanAt)
}

// newCostModel compiles the cost model whose task and concrete
// communication costs are stat of their duration laws, and whose
// placement-agnostic edge costs are edgeStat of the averaged minimum
// communication time. edgeStat is not derived from stat because
// HEFT's is Scenario.MeanAt: under the default family that is the
// closed form MeanFromMin, whose rounding differs from Beta.Mean(), so
// deriving it would change schedules.
func newCostModel(scen *platform.Scenario, stat func(stochastic.Dist) float64,
	edgeStat func(min float64) float64) (*CostModel, error) {
	order, err := scen.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int32, len(order))
	for i, t := range order {
		pos[t] = int32(i)
	}
	n, m := scen.G.N(), scen.P.M
	cm := &CostModel{
		Scen:    scen,
		N:       n,
		M:       m,
		csr:     scen.G.CSR(),
		order:   order,
		pos:     pos,
		cc:      scen.P.CommClasses(),
		MeanETC: make([]float64, n*m),
		AvgDur:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		row := cm.MeanETC[i*m : (i+1)*m]
		var sum float64
		for j := 0; j < m; j++ {
			row[j] = stat(scen.TaskDist(dag.Task(i), j))
			sum += row[j]
		}
		cm.AvgDur[i] = sum / float64(m)
	}
	// Placement-agnostic per-edge communication costs: the same
	// expression Model.AvgComm evaluates per query, hoisted out of the
	// rank loops.
	cm.EdgeAvgComm = make([]float64, cm.csr.NumEdges)
	if m > 1 {
		avgTau, avgLat := scen.P.AvgTau(), scen.P.AvgLat()
		for e, vol := range cm.csr.Vol {
			cm.EdgeAvgComm[e] = edgeStat(avgLat + vol*avgTau)
		}
	}
	cm.classComm = scen.BatchCommCosts(cm.cc, cm.csr.Vol, stat)
	return cm, nil
}

// Comm returns the communication cost of edge e between processors pi
// and pj (0 when co-located) — for the mean model, the compiled form
// of Model.MeanComm.
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
