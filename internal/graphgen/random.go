// Package graphgen generates the task graphs of the paper's evaluation:
// the layered random DAGs of §V, the Cholesky-factorization DAG, the
// Gaussian-elimination DAG (Cosnard et al.), and the elementary shapes
// (chain, fork, join, fork-join) used for validation and for the Fig. 9
// slack study.
package graphgen

import (
	"math/rand"

	"repro/internal/dag"
	"repro/internal/stochastic"
)

// The random-DAG parameters of §V of the paper.
const (
	randomCCR    = 0.1 // communication-to-computation ratio
	randomMuTask = 20  // average computation cost
	randomVTask  = 0.5 // task and edge coefficient of variation
)

// Random generates the layered random DAG of §V with n tasks: nodes
// are created one at a time, each new node chooses its in-degree
// uniformly between 1 and the number of already-created
// ("higher-level") nodes, and connects to that many distinct higher
// nodes. Edge communication volumes are Gamma distributed with mean
// µtask·CCR = 2 and coefficient of variation V = 0.5.
//
// The returned weights are the per-task average computation costs drawn
// from a Gamma of mean µtask = 20 and the same V; the platform package
// turns them into an unrelated ETC matrix with the machine CV.
func Random(n int, rng *rand.Rand) (*dag.Graph, []float64) {
	g := dag.New(n)
	commDist := stochastic.GammaFromMeanCV(randomMuTask*randomCCR, randomVTask)
	taskDist := stochastic.GammaFromMeanCV(randomMuTask, randomVTask)

	for i := 1; i < n; i++ {
		deg := 1 + rng.Intn(i)
		for _, parent := range rng.Perm(i)[:deg] {
			vol := commDist.Sample(rng)
			if vol < 0 {
				vol = 0
			}
			_ = g.AddEdge(dag.Task(parent), dag.Task(i), vol)
		}
	}
	weights := make([]float64, n)
	for i := range weights {
		w := taskDist.Sample(rng)
		if w < 1e-3 {
			w = 1e-3
		}
		weights[i] = w
	}
	return g, weights
}

// Chain returns a linear chain of n tasks with the given uniform
// communication volume.
func Chain(n int, vol float64) *dag.Graph {
	g := dag.New(n)
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(dag.Task(i), dag.Task(i+1), vol)
	}
	return g
}

// Fork returns a graph with one source fanning out to n-1 children.
func Fork(n int, vol float64) *dag.Graph {
	g := dag.New(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(0, dag.Task(i), vol)
	}
	return g
}

// Join returns the Fig. 9 join graph: n-1 independent tasks all feeding
// one final task (n tasks total).
func Join(n int, vol float64) *dag.Graph {
	g := dag.New(n)
	sink := dag.Task(n - 1)
	for i := 0; i < n-1; i++ {
		_ = g.AddEdge(dag.Task(i), sink, vol)
	}
	return g
}

// ForkJoin returns a source, width parallel tasks and a sink
// (width+2 tasks).
func ForkJoin(width int, vol float64) *dag.Graph {
	g := dag.New(width + 2)
	sink := dag.Task(width + 1)
	for i := 1; i <= width; i++ {
		_ = g.AddEdge(0, dag.Task(i), vol)
		_ = g.AddEdge(dag.Task(i), sink, vol)
	}
	return g
}
