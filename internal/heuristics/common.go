// Package heuristics implements the schedule generators of the paper:
// the random 3-phase generator of §V and the three makespan-centric
// list heuristics compared in the evaluation — HEFT (Topcuoglu et al.),
// BIL (Oh & Ha) and Hyb.BMCT (Sakellariou & Zhao) — plus the SDHEFT
// extension. The paper's three work on mean durations under the
// Beta(2,5)/UL uncertainty model (with a constant UL this is
// equivalent to using the minimum durations); SDHEFT works on
// mean + λσ.
//
// The entry points (HEFT, BIL, HBMCT, SDHEFT) run on the compiled
// CostModel — flat CSR adjacency, precomputed per-edge communication
// costs, gap-indexed processor timelines. The equivalence harness in
// equivalence_test.go pins every heuristic's results by frozen
// digests.
package heuristics

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Result bundles a heuristic's schedule with its predicted (mean)
// makespan.
type Result struct {
	Schedule *schedule.Schedule
	Makespan float64 // heuristic's own makespan estimate under its cost model
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
