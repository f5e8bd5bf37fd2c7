package dag

// EdgeWeight gives the (deterministic) cost of traversing an edge, e.g.
// the mean communication time between the processors the two tasks run
// on. Zero for co-located tasks.
type EdgeWeight func(from, to Task) float64

// ZeroEdges is an EdgeWeight that ignores communications.
func ZeroEdges(Task, Task) float64 { return 0 }

// TopLevels returns Tl(i): the length of the longest path from an entry
// node to i, excluding i's own weight (paper §IV). nodeW[i] is the
// (mean) duration of task i.
func (g *Graph) TopLevels(nodeW []float64, edgeW EdgeWeight) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	if edgeW == nil {
		edgeW = ZeroEdges
	}
	tl := make([]float64, g.n)
	for _, t := range order {
		for _, p := range g.pred[t] {
			cand := tl[p] + nodeW[p] + edgeW(p, t)
			if cand > tl[t] {
				tl[t] = cand
			}
		}
	}
	return tl, nil
}

// BottomLevels returns Bl(i): the length of the longest path from i to
// an exit node, including i's own weight (paper §IV).
func (g *Graph) BottomLevels(nodeW []float64, edgeW EdgeWeight) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	if edgeW == nil {
		edgeW = ZeroEdges
	}
	bl := make([]float64, g.n)
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		bl[t] = nodeW[t]
		for _, s := range g.succ[t] {
			cand := nodeW[t] + edgeW(t, s) + bl[s]
			if cand > bl[t] {
				bl[t] = cand
			}
		}
	}
	return bl, nil
}

// CriticalPathLength returns the length of the longest entry→exit path
// (node weights plus edge weights), i.e. the deterministic makespan
// lower bound of the DAG with unlimited processors.
func (g *Graph) CriticalPathLength(nodeW []float64, edgeW EdgeWeight) (float64, error) {
	bl, err := g.BottomLevels(nodeW, edgeW)
	if err != nil {
		return 0, err
	}
	var best float64
	for _, t := range g.Sources() {
		if bl[t] > best {
			best = bl[t]
		}
	}
	return best, nil
}

// Slacks returns, for each task, s_i = M − Bl(i) − Tl(i) where M is the
// critical-path length (paper §IV). Tasks on a critical path have zero
// slack.
func (g *Graph) Slacks(nodeW []float64, edgeW EdgeWeight) ([]float64, error) {
	tl, err := g.TopLevels(nodeW, edgeW)
	if err != nil {
		return nil, err
	}
	bl, err := g.BottomLevels(nodeW, edgeW)
	if err != nil {
		return nil, err
	}
	var m float64
	for t := 0; t < g.n; t++ {
		if v := tl[t] + bl[t]; v > m {
			m = v
		}
	}
	out := make([]float64, g.n)
	for t := 0; t < g.n; t++ {
		s := m - bl[t] - tl[t]
		if s < 0 {
			s = 0 // guard against rounding noise
		}
		out[t] = s
	}
	return out, nil
}
