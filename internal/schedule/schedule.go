// Package schedule represents eager schedules — assignments of tasks to
// processors together with a per-processor execution order, where every
// task starts as soon as its predecessors' data has arrived and its
// processor is free (no deliberate slack; §II of the paper). It
// provides validation, deterministic timing (Simulator), the
// disjunctive-graph augmentation, and the compiled Monte-Carlo
// realization kernel (RealizationKernel).
package schedule

import (
	"fmt"

	"repro/internal/dag"
)

// Schedule is an eager schedule: task→processor assignment plus the
// execution order on each processor.
type Schedule struct {
	M     int          // number of processors
	Proc  []int        // task → processor (-1 while unassigned)
	Order [][]dag.Task // per-processor task sequence
}

// New creates an empty schedule for n tasks on m processors.
func New(n, m int) *Schedule {
	proc := make([]int, n)
	for i := range proc {
		proc[i] = -1
	}
	return &Schedule{M: m, Proc: proc, Order: make([][]dag.Task, m)}
}

// N returns the number of tasks.
func (s *Schedule) N() int { return len(s.Proc) }

// Assign places task t at the end of processor p's order.
func (s *Schedule) Assign(t dag.Task, p int) {
	s.Proc[t] = p
	s.Order[p] = append(s.Order[p], t)
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{M: s.M, Proc: append([]int(nil), s.Proc...), Order: make([][]dag.Task, s.M)}
	for p := range s.Order {
		c.Order[p] = append([]dag.Task(nil), s.Order[p]...)
	}
	return c
}

// PrevOnProc returns, for every task, the task scheduled immediately
// before it on the same processor (-1 for the first task of each
// processor).
func (s *Schedule) PrevOnProc() []dag.Task {
	prev := make([]dag.Task, s.N())
	for i := range prev {
		prev[i] = -1
	}
	for _, order := range s.Order {
		for i := 1; i < len(order); i++ {
			prev[order[i]] = order[i-1]
		}
	}
	return prev
}

// Validate checks that the schedule is complete and feasible for g:
// every task assigned to a valid processor, appearing exactly once in
// its processor's order, and the disjunctive graph (precedences plus
// processor sequencing) acyclic.
func (s *Schedule) Validate(g *dag.Graph) error {
	if g.N() != s.N() {
		return fmt.Errorf("schedule: %d tasks scheduled for a %d-task graph", s.N(), g.N())
	}
	seen := make([]int, s.N())
	for p, order := range s.Order {
		for _, t := range order {
			if int(t) < 0 || int(t) >= s.N() {
				return fmt.Errorf("schedule: task %d out of range on processor %d", t, p)
			}
			if s.Proc[t] != p {
				return fmt.Errorf("schedule: task %d in order of processor %d but assigned to %d", t, p, s.Proc[t])
			}
			seen[t]++
		}
	}
	for t, c := range seen {
		if c == 0 {
			return fmt.Errorf("schedule: task %d not scheduled", t)
		}
		if c > 1 {
			return fmt.Errorf("schedule: task %d scheduled %d times", t, c)
		}
	}
	for t, p := range s.Proc {
		if p < 0 || p >= s.M {
			return fmt.Errorf("schedule: task %d on invalid processor %d", t, p)
		}
	}
	dg, err := s.Disjunctive(g)
	if err != nil {
		return err
	}
	if !dg.IsAcyclic() {
		return fmt.Errorf("schedule: processor orders conflict with precedences (disjunctive graph cyclic)")
	}
	return nil
}

// Disjunctive returns the disjunctive graph of the schedule: the task
// graph augmented with zero-volume edges between consecutive tasks on
// the same processor (Shi, Jeannot & Dongarra; §II of the paper). The
// makespan distribution of the schedule is the completion-time
// distribution of this graph.
func (s *Schedule) Disjunctive(g *dag.Graph) (*dag.Graph, error) {
	if g.N() != s.N() {
		return nil, fmt.Errorf("schedule: %d tasks scheduled for a %d-task graph", s.N(), g.N())
	}
	dg := g.Clone()
	for _, order := range s.Order {
		for i := 1; i < len(order); i++ {
			if order[i-1] == order[i] {
				return nil, fmt.Errorf("schedule: task %d repeated consecutively", order[i])
			}
			if err := dg.AddEdge(order[i-1], order[i], 0); err != nil {
				return nil, err
			}
		}
	}
	return dg, nil
}
