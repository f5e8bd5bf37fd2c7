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

// RandomParams are the random-DAG parameters named in §V of the paper.
type RandomParams struct {
	N       int     // number of tasks
	CCR     float64 // communication-to-computation ratio (paper: 0.1)
	MuTask  float64 // average computation cost (paper: 20)
	VTask   float64 // task coefficient of variation (paper: 0.5)
	MuComm  float64 // average communication volume; 0 = MuTask·CCR
	Connect float64 // optional edge-thinning factor in (0,1]; 1 = paper's rule
}

// DefaultRandomParams returns the paper's parameter set for n tasks.
func DefaultRandomParams(n int) RandomParams {
	return RandomParams{N: n, CCR: 0.1, MuTask: 20, VTask: 0.5, Connect: 1}
}

// Random generates a layered random DAG following the construction of
// §V: nodes are created one at a time, each new node chooses its
// in-degree uniformly between 1 and the number of already-created
// ("higher-level") nodes, and connects to that many distinct higher
// nodes. Edge communication volumes are Gamma distributed with mean
// MuComm (defaulting to MuTask·CCR) and coefficient of variation VTask.
//
// The returned weights are the per-task average computation costs drawn
// from Gamma(MuTask, VTask); the platform package turns them into an
// unrelated ETC matrix with the machine CV.
func Random(p RandomParams, rng *rand.Rand) (*dag.Graph, []float64) {
	n := p.N
	g := dag.New(n)
	if p.Connect <= 0 || p.Connect > 1 {
		p.Connect = 1
	}
	muComm := p.MuComm
	if muComm <= 0 {
		muComm = p.MuTask * p.CCR
	}
	commDist := stochastic.GammaFromMeanCV(muComm, p.VTask)
	taskDist := stochastic.GammaFromMeanCV(p.MuTask, p.VTask)

	for i := 1; i < n; i++ {
		maxDeg := int(float64(i)*p.Connect + 0.5)
		if maxDeg < 1 {
			maxDeg = 1
		}
		deg := 1 + rng.Intn(maxDeg)
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
