// Package dag implements the task-graph model of the paper:
// G = (V, E, C) where V are tasks, E are precedence edges and C carries
// the communication volume of each edge. It provides topological order,
// top/bottom levels, critical-path lengths and the disjunctive-graph
// augmentation used to evaluate a schedule's makespan distribution.
package dag

import (
	"fmt"
	"sort"
)

// Task identifies a node of the graph (dense indices 0..N-1).
type Task int

// Edge is a directed dependency with a communication volume (the c_ij
// of the paper; the actual transfer time also involves the platform's
// τ and latency matrices).
type Edge struct {
	From, To Task
	Volume   float64
}

// Graph is a directed acyclic task graph. Nodes carry an abstract cost
// (interpreted by the platform model), edges carry communication
// volumes. The zero value is an empty graph; use New.
type Graph struct {
	n     int
	succ  [][]Task
	pred  [][]Task
	vol   map[[2]Task]float64
	names []string
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{
		n:    n,
		succ: make([][]Task, n),
		pred: make([][]Task, n),
		vol:  make(map[[2]Task]float64),
	}
}

// N returns the number of tasks.
func (g *Graph) N() int { return g.n }

// SetName attaches a human-readable name to task t (used by exporters).
func (g *Graph) SetName(t Task, name string) {
	if g.names == nil {
		g.names = make([]string, g.n)
	}
	g.names[t] = name
}

// Name returns the task's name or "t<i>".
func (g *Graph) Name(t Task) string {
	if g.names != nil && g.names[t] != "" {
		return g.names[t]
	}
	return fmt.Sprintf("t%d", int(t))
}

// AddEdge inserts the dependency from → to with the given communication
// volume. Duplicate edges keep the larger volume. Self-loops and
// out-of-range tasks are rejected.
func (g *Graph) AddEdge(from, to Task, volume float64) error {
	if from == to {
		return fmt.Errorf("dag: self-loop on task %d", from)
	}
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	key := [2]Task{from, to}
	if old, ok := g.vol[key]; ok {
		if volume > old {
			g.vol[key] = volume
		}
		return nil
	}
	g.vol[key] = volume
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

// HasEdge reports whether from → to exists.
func (g *Graph) HasEdge(from, to Task) bool {
	_, ok := g.vol[[2]Task{from, to}]
	return ok
}

// Volume returns the communication volume of edge from → to (0 if the
// edge does not exist).
func (g *Graph) Volume(from, to Task) float64 { return g.vol[[2]Task{from, to}] }

// Succ returns the successors of t (do not mutate).
func (g *Graph) Succ(t Task) []Task { return g.succ[t] }

// Pred returns the predecessors of t (do not mutate).
func (g *Graph) Pred(t Task) []Task { return g.pred[t] }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.vol) }

// Edges returns all edges sorted by (from, to).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.vol))
	for k, v := range g.vol {
		out = append(out, Edge{From: k[0], To: k[1], Volume: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Sources returns all tasks without predecessors, in index order.
func (g *Graph) Sources() []Task {
	var out []Task
	for t := 0; t < g.n; t++ {
		if len(g.pred[t]) == 0 {
			out = append(out, Task(t))
		}
	}
	return out
}

// Sinks returns all tasks without successors, in index order.
func (g *Graph) Sinks() []Task {
	var out []Task
	for t := 0; t < g.n; t++ {
		if len(g.succ[t]) == 0 {
			out = append(out, Task(t))
		}
	}
	return out
}

// TopoOrder returns a topological order of the tasks, or an error if
// the graph has a cycle (Kahn's algorithm; ties broken by task index
// for determinism).
func (g *Graph) TopoOrder() ([]Task, error) {
	indeg := make([]int, g.n)
	for t := 0; t < g.n; t++ {
		indeg[t] = len(g.pred[t])
	}
	// Min-index FIFO via sorted frontier for determinism.
	frontier := make([]Task, 0, g.n)
	for t := 0; t < g.n; t++ {
		if indeg[t] == 0 {
			frontier = append(frontier, Task(t))
		}
	}
	order := make([]Task, 0, g.n)
	for len(frontier) > 0 {
		t := frontier[0]
		frontier = frontier[1:]
		order = append(order, t)
		for _, s := range g.succ[t] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != g.n {
		return nil, fmt.Errorf("dag: graph has a cycle (%d of %d tasks ordered)", len(order), g.n)
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Clone returns a deep copy of the graph. Edges are inserted in
// sorted (from, to) order — NOT in map iteration order — so the
// clone's Pred/Succ adjacency orders are deterministic. Downstream
// evaluators accumulate floating-point maxima and sums in adjacency
// order; a map-ordered clone made their low-order bits vary from run
// to run.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.Edges() {
		_ = c.AddEdge(e.From, e.To, e.Volume)
	}
	if g.names != nil {
		c.names = append([]string(nil), g.names...)
	}
	return c
}

// Levels returns, for each task, its depth: 0 for sources, otherwise
// 1 + max(depth of predecessors).
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, g.n)
	for _, t := range order {
		for _, p := range g.pred[t] {
			if depth[p]+1 > depth[t] {
				depth[t] = depth[p] + 1
			}
		}
	}
	return depth, nil
}
