// Package heuristics implements the schedule generators of the paper:
// the random 3-phase generator of §V and the three makespan-centric
// list heuristics compared in the evaluation — HEFT (Topcuoglu et al.),
// BIL (Oh & Ha) and Hyb.BMCT (Sakellariou & Zhao) — plus the SDHEFT
// extension. The paper's three work on mean durations under the
// Beta(2,5)/UL uncertainty model (with a constant UL this is
// equivalent to using the minimum durations); SDHEFT works on
// mean + λσ.
//
// Each heuristic exists twice: the exported entry points (HEFT, BIL,
// HBMCT, SDHEFT) run on the compiled CostModel — flat CSR
// adjacency, precomputed per-edge communication costs, gap-indexed
// processor timelines — and the Reference* functions in reference.go
// retain the original Model-based implementations. The two are
// bit-identical by construction (same float operations in the same
// order), enforced by the equivalence harness in equivalence_test.go.
package heuristics

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Model precomputes the deterministic (mean) costs every list heuristic
// needs: the mean ETC matrix, per-task processor-averaged durations and
// placement-agnostic mean communication costs. It is the uncompiled
// counterpart of CostModel, kept as the equivalence oracle.
type Model struct {
	Scen    *platform.Scenario
	MeanETC [][]float64 // n×m mean durations
	AvgDur  []float64   // mean duration averaged over processors
	avgTau  float64
	avgLat  float64
}

// NewModel builds the cost model for a scenario.
func NewModel(scen *platform.Scenario) *Model {
	n, m := scen.G.N(), scen.P.M
	meanETC := make([][]float64, n)
	avgDur := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, m)
		var sum float64
		for j := 0; j < m; j++ {
			row[j] = scen.MeanTask(dag.Task(i), j)
			sum += row[j]
		}
		meanETC[i] = row
		avgDur[i] = sum / float64(m)
	}
	return &Model{
		Scen:    scen,
		MeanETC: meanETC,
		AvgDur:  avgDur,
		avgTau:  scen.P.AvgTau(),
		avgLat:  scen.P.AvgLat(),
	}
}

// AvgComm returns the placement-agnostic mean communication cost of
// edge from→to: the scenario's mean duration (under UL and its
// duration family) of lat + volume·τ, with τ and lat averaged over
// distinct processor pairs.
func (m *Model) AvgComm(from, to dag.Task) float64 {
	if m.Scen.P.M <= 1 {
		return 0
	}
	return m.Scen.MeanAt(m.avgLat + m.Scen.G.Volume(from, to)*m.avgTau)
}

// MeanComm returns the mean communication cost of edge from→to for a
// concrete placement.
func (m *Model) MeanComm(from, to dag.Task, pi, pj int) float64 {
	return m.Scen.MeanComm(from, to, pi, pj)
}

// UpwardRanks returns HEFT's rank_u: rank(i) = avgDur(i) +
// max_{s ∈ succ(i)} (avgComm(i,s) + rank(s)).
func (m *Model) UpwardRanks() ([]float64, error) {
	g := m.Scen.G
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make([]float64, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, s := range g.Succ(t) {
			cand := m.AvgComm(t, s) + rank[s]
			if cand > best {
				best = cand
			}
		}
		rank[t] = m.AvgDur[t] + best
	}
	return rank, nil
}

// RankOrder returns the tasks sorted by decreasing upward rank. Ties
// are broken by topological position, not task index: ranks strictly
// decrease along edges only while durations are positive, so with
// zero-duration tasks an index tie-break could order a successor
// before its predecessor and break every downstream consumer that
// assumes a precedence-compatible order. The result is always a valid
// topological order.
func (m *Model) RankOrder() ([]dag.Task, error) {
	rank, err := m.UpwardRanks()
	if err != nil {
		return nil, err
	}
	pos, err := topoPositions(m.Scen.G)
	if err != nil {
		return nil, err
	}
	return sortByRankDesc(rank, pos), nil
}

// Result bundles a heuristic's schedule with its predicted (mean)
// makespan.
type Result struct {
	Schedule *schedule.Schedule
	Makespan float64 // heuristic's own makespan estimate under its cost model
}

// topoPositions returns each task's index in the deterministic
// topological order — the precedence-compatible tie-break for equal
// start times.
func topoPositions(g *dag.Graph) ([]int32, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int32, len(order))
	for i, t := range order {
		pos[t] = int32(i)
	}
	return pos, nil
}

// buildFromPlacement converts a task→processor assignment plus start
// times into a Schedule whose per-processor orders follow the start
// times. Equal start times — possible only between zero-duration
// tasks, which occupy the same instant — are broken by topological
// position (pos): breaking them by placement order could emit a
// successor before its predecessor on the same processor, making the
// disjunctive graph cyclic.
func buildFromPlacement(pos []int32, nProc int, proc []int, start []float64) *schedule.Schedule {
	n := len(proc)
	s := schedule.New(n, nProc)
	byProc := make([][]dag.Task, nProc)
	for t := 0; t < n; t++ {
		byProc[proc[t]] = append(byProc[proc[t]], dag.Task(t))
	}
	for p := range byProc {
		ord := byProc[p]
		sort.SliceStable(ord, func(i, j int) bool {
			si, sj := start[ord[i]], start[ord[j]]
			if si != sj { //reprovet:allow floateq comparator falls through to a stable index tie-break only on exact equality
				return si < sj
			}
			return pos[ord[i]] < pos[ord[j]]
		})
		for _, t := range ord {
			s.Assign(t, p)
		}
	}
	return s
}

// almostLE is a float comparison helper tolerant to timing round-off.
func almostLE(a, b float64) bool { return a <= b+1e-9 }

// ByName returns the heuristic with the given name ("heft", "bil",
// "hbmct", "sdheft"), or nil.
func ByName(name string) func(*platform.Scenario) (Result, error) {
	switch name {
	case "heft", "HEFT":
		return HEFT
	case "bil", "BIL":
		return BIL
	case "hbmct", "HBMCT", "hyb.bmct", "Hyb.BMCT":
		return HBMCT
	case "sdheft", "SDHEFT":
		return func(s *platform.Scenario) (Result, error) { return SDHEFT(s, 1) }
	default:
		return nil
	}
}

// Entry is one of the paper's scheduling heuristics: a stable display
// name and its entry point.
type Entry struct {
	Name string
	Fn   func(*platform.Scenario) (Result, error)
}

// All returns the paper's three heuristics sorted by name, the order
// in which experiment rows list them. The slice is fresh on every call.
func All() []Entry {
	return []Entry{{"BIL", BIL}, {"HBMCT", HBMCT}, {"HEFT", HEFT}}
}
