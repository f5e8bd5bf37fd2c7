package graphgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
)

// The customary STG shape (Tobita & Kasahara, "A standard task graph
// set for fair evaluation of multiprocessor scheduling algorithms",
// J. Scheduling 2002). The mean interior-layer width is √n.
const (
	// stgRegularity in [0, 1] controls how uniform the layer widths
	// are: 1 gives every layer exactly the mean width, 0 draws each
	// width uniformly from [1, 2·width−1].
	stgRegularity = 0.5
	// stgDensity is the probability of an edge between a task and each
	// candidate predecessor in the previous stgJump layers.
	stgDensity = 0.3
	// stgJump is the maximum number of layers an edge may span.
	stgJump = 3
)

// STG generates a Tobita–Kasahara-style layered task graph with
// exactly n tasks (at least 3): task 0 is the entry, task n−1 the exit,
// and the interior tasks form randomly sized layers with forward edges
// spanning at most stgJump layers. Every interior task gets at least
// one predecessor and one successor, and entry and exit edges make the
// graph a single weakly connected component with one source and one
// sink.
//
// Edge communication volumes are drawn uniformly from [volLo, volHi].
func STG(n int, volLo, volHi float64, rng *rand.Rand) *dag.Graph {
	if n < 3 {
		n = 3
	}
	interior := n - 2
	width := math.Max(1, math.Sqrt(float64(n)))

	// Partition the interior tasks into layers: each layer width is
	// drawn from [wLo, wHi], the regularity-scaled window around the
	// mean width, truncated by the remaining task budget.
	var layers [][]dag.Task
	next := dag.Task(1)
	remaining := interior
	for remaining > 0 {
		wLo := 1 + int(stgRegularity*(width-1)+0.5)
		wHi := int(2*width+0.5) - wLo
		if wHi < wLo {
			wHi = wLo
		}
		w := wLo
		if wHi > wLo {
			w += rng.Intn(wHi - wLo + 1)
		}
		if w > remaining {
			w = remaining
		}
		layer := make([]dag.Task, w)
		for i := range layer {
			layer[i] = next
			next++
		}
		layers = append(layers, layer)
		remaining -= w
	}

	g := dag.New(n)
	vol := treeVol(volLo, volHi, rng)
	entry, exit := dag.Task(0), dag.Task(n-1)
	g.SetName(entry, "ENTRY")
	g.SetName(exit, "EXIT")
	for l, layer := range layers {
		for _, t := range layer {
			g.SetName(t, fmt.Sprintf("L%d/%d", l, int(t)))
		}
	}

	// Forward edges: each interior task samples predecessors from the
	// previous stgJump layers; a task that draws none is wired to a random
	// task of the nearest previous layer (or the entry for layer 0).
	for l, layer := range layers {
		for _, t := range layer {
			connected := false
			for back := 1; back <= stgJump && back <= l; back++ {
				for _, cand := range layers[l-back] {
					if rng.Float64() < stgDensity {
						_ = g.AddEdge(cand, t, vol())
						connected = true
					}
				}
			}
			if !connected {
				if l == 0 {
					_ = g.AddEdge(entry, t, vol())
				} else {
					prev := layers[l-1]
					_ = g.AddEdge(prev[rng.Intn(len(prev))], t, vol())
				}
			}
		}
	}
	// Every task without a successor feeds the exit; together with the
	// guaranteed predecessors (layer 0 always hangs off the entry) this
	// makes the graph one weakly connected component.
	for _, layer := range layers {
		for _, t := range layer {
			if len(g.Succ(t)) == 0 {
				_ = g.AddEdge(t, exit, vol())
			}
		}
	}
	return g
}
