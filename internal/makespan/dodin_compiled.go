package makespan

import (
	"repro/internal/stochastic"
)

// This file is the compiled counterpart of dodin.go: the same
// series-parallel reduction semantics on flat arrays instead of
// per-node adjacency maps, with every density drawn from a pooled
// recycling workspace (stochastic.Ops) instead of fresh allocations.
//
// Three structural changes carry the speedup:
//
//   - adjacency is slices of edge ids per node (the graph mutates too
//     much for a frozen CSR, but the slices keep degree tests and
//     sibling scans O(deg) with no map iteration);
//   - an index-based reduction worklist replaces the legacy
//     full-graph rescans: a reduction pushes only the nodes whose
//     rule applicability it changed, and a single full pass is run
//     only to certify "stuck" before a cone duplication;
//   - cone duplication memoizes copies in a generation-stamped array
//     (no per-duplication map), shares un-owned (cached) densities
//     instead of cloning them, and clones owned ones through the
//     workspace free list.
//
// Ownership discipline: node and edge RVs are either owned by the
// graph (produced by its Ops, recycled when replaced or removed) or
// shared (cache entries and the structural zero point, never recycled).

// spNode is one node of the reduction graph. pred/succ hold edge ids.
type spNode struct {
	rv   *stochastic.Numeric
	pred []int32
	succ []int32
	own  bool
	dead bool
}

// spEdge is one edge of the reduction graph.
type spEdge struct {
	from, to int32
	rv       *stochastic.Numeric
	own      bool
	dead     bool
}

type spGraph struct {
	acc stochastic.EvalAccuracy
	ops *stochastic.Ops

	node []spNode
	edge []spEdge
	live int

	queue  []int32
	queued []bool

	// Generation-stamped copy memo for duplicateCone: copyID[x] is
	// x's copy iff copyGen[x] == gen.
	copyID  []int32
	copyGen []uint32
	gen     uint32

	scratch []int32 // edge-id snapshot reused across reductions
}

func newSPGraph(acc stochastic.EvalAccuracy, ops *stochastic.Ops, hint int) *spGraph {
	return &spGraph{
		acc:     acc,
		ops:     ops,
		node:    make([]spNode, 0, hint),
		queued:  make([]bool, 0, hint),
		copyID:  make([]int32, 0, hint),
		copyGen: make([]uint32, 0, hint),
	}
}

func (g *spGraph) addNode(rv *stochastic.Numeric, own bool) int32 {
	g.node = append(g.node, spNode{rv: rv, own: own})
	g.queued = append(g.queued, false)
	g.copyID = append(g.copyID, 0)
	g.copyGen = append(g.copyGen, 0)
	g.live++
	return int32(len(g.node) - 1)
}

func (g *spGraph) push(v int32) {
	if !g.queued[v] && !g.node[v].dead {
		g.queued[v] = true
		g.queue = append(g.queue, v)
	}
}

// setNodeRV replaces v's variable, recycling the old one when owned.
func (g *spGraph) setNodeRV(v int32, rv *stochastic.Numeric, own bool) {
	if n := &g.node[v]; n.own {
		g.ops.Recycle(n.rv)
	}
	g.node[v].rv = rv
	g.node[v].own = own
}

// findEdge returns the id of the live edge u→v, or -1.
func (g *spGraph) findEdge(u, v int32) int32 {
	for _, f := range g.node[u].succ {
		if g.edge[f].to == v {
			return f
		}
	}
	return -1
}

// listRemove deletes edge id f from *l by swap-remove.
func listRemove(l *[]int32, f int32) {
	s := *l
	for i, x := range s {
		if x == f {
			s[i] = s[len(s)-1]
			*l = s[:len(s)-1]
			return
		}
	}
}

// addEdge inserts u→v carrying rv; a pre-existing parallel edge merges
// by the maximum (both paths must complete), consuming rv.
func (g *spGraph) addEdge(u, v int32, rv *stochastic.Numeric, own bool) {
	if f := g.findEdge(u, v); f >= 0 {
		e := &g.edge[f]
		merged := g.ops.MaxAcc(e.rv, rv, g.acc)
		if e.own {
			g.ops.Recycle(e.rv)
		}
		if own {
			g.ops.Recycle(rv)
		}
		e.rv, e.own = merged, true
		return
	}
	g.edge = append(g.edge, spEdge{from: u, to: v, rv: rv, own: own})
	f := int32(len(g.edge) - 1)
	g.node[u].succ = append(g.node[u].succ, f)
	g.node[v].pred = append(g.node[v].pred, f)
}

// dropEdge removes edge f from both endpoint lists and recycles its
// variable when owned.
func (g *spGraph) dropEdge(f int32) {
	e := &g.edge[f]
	if e.dead {
		return
	}
	listRemove(&g.node[e.from].succ, f)
	listRemove(&g.node[e.to].pred, f)
	if e.own {
		g.ops.Recycle(e.rv)
	}
	e.rv = nil
	e.dead = true
}

// removeNode drops v with all incident edges and recycles owned
// densities.
func (g *spGraph) removeNode(v int32) {
	n := &g.node[v]
	for len(n.pred) > 0 {
		g.dropEdge(n.pred[0])
	}
	for len(n.succ) > 0 {
		g.dropEdge(n.succ[0])
	}
	if n.own {
		g.ops.Recycle(n.rv)
	}
	n.rv = nil
	n.dead = true
	g.live--
}

// moveEdgeSource re-points edge f (old→w) to start at u, merging into
// an existing u→w edge by the maximum.
func (g *spGraph) moveEdgeSource(f, u int32) {
	e := &g.edge[f]
	w := e.to
	if ex := g.findEdge(u, w); ex >= 0 {
		x := &g.edge[ex]
		merged := g.ops.MaxAcc(x.rv, e.rv, g.acc)
		if x.own {
			g.ops.Recycle(x.rv)
		}
		x.rv, x.own = merged, true
		g.dropEdge(f)
		return
	}
	listRemove(&g.node[e.from].succ, f)
	e.from = u
	g.node[u].succ = append(g.node[u].succ, f)
}

// seq convolves the given variables in order, skipping nils; the result
// is always owned.
func (g *spGraph) seq(parts ...*stochastic.Numeric) *stochastic.Numeric {
	out := stochastic.NewPoint(0)
	owned := false
	for _, p := range parts {
		if p == nil {
			continue
		}
		next := g.ops.AddAcc(out, p, g.acc)
		if owned {
			g.ops.Recycle(out)
		}
		out, owned = next, true
	}
	if !owned {
		return g.ops.Copy(out)
	}
	return out
}

// trySeriesAt merges v into its single predecessor u when u has v as
// its only successor (the merged node carries u ⊕ edge ⊕ v and
// inherits v's out-edges), mirroring rvGraph.seriesReduceOnce.
func (g *spGraph) trySeriesAt(v int32) bool {
	n := &g.node[v]
	if len(n.pred) != 1 {
		return false
	}
	f := n.pred[0]
	u := g.edge[f].from
	if len(g.node[u].succ) != 1 {
		return false
	}
	g.setNodeRV(u, g.seq(g.node[u].rv, g.edge[f].rv, n.rv), true)
	g.dropEdge(f)
	outs := append(g.scratch[:0], n.succ...)
	for _, of := range outs {
		g.moveEdgeSource(of, u)
		g.push(g.edge[of].to)
	}
	g.scratch = outs[:0]
	g.removeNode(v)
	g.push(u)
	return true
}

// tryChainAt contracts a degree-(1,1) node v between u and w into an
// edge u→w carrying edge(u,v) ⊕ v ⊕ edge(v,w), mirroring
// rvGraph.chainContractOnce (including deferring to the series rule
// when outdeg(u) == 1).
func (g *spGraph) tryChainAt(v int32) bool {
	n := &g.node[v]
	if len(n.pred) != 1 || len(n.succ) != 1 {
		return false
	}
	fin, fout := n.pred[0], n.succ[0]
	u, w := g.edge[fin].from, g.edge[fout].to
	if u == w {
		return false // cannot happen in a DAG, but stay safe
	}
	if len(g.node[u].succ) == 1 {
		return false // covered more cheaply by the series rule
	}
	rv := g.seq(g.edge[fin].rv, n.rv, g.edge[fout].rv)
	g.removeNode(v)
	g.addEdge(u, w, rv, true)
	g.push(u)
	g.push(w)
	return true
}

// pathRV returns v's total single-arc path variable (in-edge ⊕ node ⊕
// out-edge); always owned.
func (g *spGraph) pathRV(v int32) *stochastic.Numeric {
	n := &g.node[v]
	var ein, eout *stochastic.Numeric
	if len(n.pred) == 1 {
		ein = g.edge[n.pred[0]].rv
	}
	if len(n.succ) == 1 {
		eout = g.edge[n.succ[0]].rv
	}
	return g.seq(ein, n.rv, eout)
}

// paraSibling reports whether x can merge with v in a parallel
// reduction: both degree-(≤1, ≤1) with identical predecessor and
// successor nodes.
func (g *spGraph) paraSibling(v, x int32) bool {
	nv, nx := &g.node[v], &g.node[x]
	if nx.dead || len(nx.pred) != len(nv.pred) || len(nx.succ) != len(nv.succ) {
		return false
	}
	if len(nx.pred) > 1 || len(nx.succ) > 1 {
		return false
	}
	if len(nv.pred) == 1 && g.edge[nv.pred[0]].from != g.edge[nx.pred[0]].from {
		return false
	}
	if len(nv.succ) == 1 && g.edge[nv.succ[0]].to != g.edge[nx.succ[0]].to {
		return false
	}
	return true
}

// mergeParallel folds sibling x into v: the two single-arc paths
// combine by the maximum, and v's connecting edges reset to zero
// points, mirroring rvGraph.parallelReduceOnce.
func (g *spGraph) mergeParallel(v, x int32) {
	pv := g.pathRV(v)
	px := g.pathRV(x)
	merged := g.ops.MaxAcc(pv, px, g.acc)
	g.ops.Recycle(pv)
	g.ops.Recycle(px)
	g.removeNode(x)
	g.setNodeRV(v, merged, true)
	n := &g.node[v]
	if len(n.pred) == 1 {
		f := n.pred[0]
		e := &g.edge[f]
		if e.own {
			g.ops.Recycle(e.rv)
		}
		e.rv, e.own = stochastic.NewPoint(0), false
		g.push(e.from)
	}
	if len(n.succ) == 1 {
		f := n.succ[0]
		e := &g.edge[f]
		if e.own {
			g.ops.Recycle(e.rv)
		}
		e.rv, e.own = stochastic.NewPoint(0), false
		g.push(e.to)
	}
	g.push(v)
}

// tryParallelAt merges v with a sibling found through its shared
// predecessor or successor (or by scanning, for isolated nodes).
func (g *spGraph) tryParallelAt(v int32) bool {
	n := &g.node[v]
	if len(n.pred) > 1 || len(n.succ) > 1 {
		return false
	}
	switch {
	case len(n.pred) == 1:
		p := g.edge[n.pred[0]].from
		for _, f := range g.node[p].succ {
			if x := g.edge[f].to; x != v && g.paraSibling(v, x) {
				g.mergeParallel(v, x)
				return true
			}
		}
	case len(n.succ) == 1:
		w := g.edge[n.succ[0]].to
		for _, f := range g.node[w].pred {
			if x := g.edge[f].from; x != v && g.paraSibling(v, x) {
				g.mergeParallel(v, x)
				return true
			}
		}
	default:
		// Fully isolated: only another isolated node qualifies.
		for x := range g.node {
			if x32 := int32(x); x32 != v && !g.node[x].dead && g.paraSibling(v, x32) {
				g.mergeParallel(v, x32)
				return true
			}
		}
	}
	return false
}

// tryReduce applies one reduction involving v, returning whether the
// graph changed. The succ-side series check keeps the worklist hot
// (a reduction at v often enables the series rule at v's successor
// before that successor is re-queued).
func (g *spGraph) tryReduce(v int32) bool {
	if g.node[v].dead {
		return false
	}
	if g.trySeriesAt(v) || g.tryChainAt(v) || g.tryParallelAt(v) {
		return true
	}
	if n := &g.node[v]; len(n.succ) == 1 {
		if w := g.edge[n.succ[0]].to; len(g.node[w].pred) == 1 {
			return g.trySeriesAt(w)
		}
	}
	return false
}

// drain runs the worklist to exhaustion.
func (g *spGraph) drain() {
	for len(g.queue) > 0 && g.live > 1 {
		v := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		g.queued[v] = false
		for g.tryReduce(v) {
			if g.node[v].dead {
				break
			}
		}
	}
}

// fullPass certifies the worklist fixpoint: it scans every live node
// once and applies the first reduction found (re-seeding the worklist
// through the rules' own pushes). Returning false proves no
// series/chain/parallel rule applies anywhere — the precondition the
// legacy reducer established for cone duplication by construction.
func (g *spGraph) fullPass() bool {
	for v := range g.node {
		if !g.node[v].dead && g.tryReduce(int32(v)) {
			return true
		}
	}
	return false
}

// duplicateCone performs one Dodin-style duplication, mirroring
// rvGraph.duplicateCone: it finds an arc u→v with outdeg(u) > 1 and
// indeg(v) > 1 (preferring the u with fewest predecessors, ties to the
// lowest id — the scan order is deterministic, unlike the legacy map
// iteration), detaches it, and re-routes it through a fresh copy of u's
// ancestor cone. Returns the number of nodes created.
func (g *spGraph) duplicateCone() int {
	bestU, bestE := int32(-1), int32(-1)
	for u := range g.node {
		nu := &g.node[u]
		if nu.dead || len(nu.succ) < 2 {
			continue
		}
		for _, f := range nu.succ {
			if len(g.node[g.edge[f].to].pred) < 2 {
				continue
			}
			if bestU < 0 || len(nu.pred) < len(g.node[bestU].pred) {
				bestU, bestE = int32(u), f
			}
			break
		}
	}
	if bestU < 0 {
		return 0
	}
	g.gen++
	created := 0
	var copyCone func(x int32) int32
	copyCone = func(x int32) int32 {
		if g.copyGen[x] == g.gen {
			return g.copyID[x]
		}
		// Owned variables must be deep-copied (the original may be
		// recycled when its node reduces); shared ones — cached
		// durations, zero points — are immutable and never recycled,
		// so both nodes may reference them.
		nx := &g.node[x]
		rv, own := nx.rv, false
		if nx.own {
			rv, own = g.ops.Copy(rv), true
		}
		d := g.addNode(rv, own)
		g.copyGen[x] = g.gen
		g.copyID[x] = d
		created++
		preds := append([]int32(nil), g.node[x].pred...)
		for _, f := range preds {
			e := &g.edge[f]
			erv, eown := e.rv, false
			if e.own {
				erv, eown = g.ops.Copy(erv), true
			}
			g.addEdge(copyCone(e.from), d, erv, eown)
		}
		g.push(d)
		return d
	}
	dup := copyCone(bestU)
	bestV := g.edge[bestE].to
	carried, carriedOwn := g.edge[bestE].rv, g.edge[bestE].own
	g.edge[bestE].own = false // ownership transfers to the re-routed edge
	g.dropEdge(bestE)
	g.addEdge(dup, bestV, carried, carriedOwn)
	g.push(bestU)
	g.push(bestV)
	return created
}

// reduce contracts the graph to a single node and returns its variable,
// interleaving cone duplications when stuck, with the same budget
// semantics as the legacy reducer. Failures are *ReductionError.
func (g *spGraph) reduce(budget int) (*stochastic.Numeric, error) {
	for v := range g.node {
		g.push(int32(v))
	}
	for g.live > 1 {
		g.drain()
		if g.live <= 1 {
			break
		}
		if g.fullPass() {
			continue
		}
		if len(g.node) >= budget {
			return nil, &ReductionError{Live: g.live, Total: len(g.node), Budget: budget}
		}
		if g.duplicateCone() == 0 {
			return nil, &ReductionError{Live: g.live, Total: len(g.node), Budget: budget, Stuck: true}
		}
	}
	for v := range g.node {
		if n := &g.node[v]; !n.dead {
			if n.own {
				// Detach the buffer from the workspace: the result
				// outlives the pooled Ops (same convention as Classic).
				return n.rv, nil
			}
			return n.rv.Clone(), nil
		}
	}
	return stochastic.NewPoint(0), nil
}

// Dodin evaluates the makespan distribution by Dodin's series-parallel
// reduction on the compiled graph: flat edge-id adjacency, a worklist
// instead of full-graph rescans, and all densities drawn from the
// cache's recycling workspace. Accuracy follows the cache. It returns
// the *ReductionError when the reduction cannot finish within its
// duplication budget; structural errors cannot occur here (the model
// is already compiled).
func (m *EvalModel) Dodin() (*stochastic.Numeric, error) {
	acc := m.cache.acc
	grid := acc.GridSize
	ops := getOps()
	defer putOps(ops)
	d := m.d
	n := d.N
	g := newSPGraph(acc, ops, n+2)
	zero := stochastic.NewPoint(0)
	for t := 0; t < n; t++ {
		// Cached duration variables are shared, never mutated or
		// recycled: reductions always replace node/edge RVs with fresh
		// owned results.
		g.addNode(m.dur[t].numeric(grid), false)
	}
	// Unique source and sink so the reduction converges to one node.
	source := g.addNode(zero, false)
	sink := g.addNode(zero, false)
	for t := 0; t < n; t++ {
		if d.PredStart[t+1] == d.PredStart[t] {
			g.addEdge(source, int32(t), zero, false)
		}
		if d.SuccStart[t+1] == d.SuccStart[t] {
			g.addEdge(int32(t), sink, zero, false)
		}
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			comm := zero
			if e := m.comm[k]; e != nil {
				comm = e.numeric(grid)
			}
			g.addEdge(d.PredTask[k], int32(t), comm, false)
		}
	}
	// Same budget as the legacy reducer: generous enough to unshare
	// small graphs completely, bounded so pathological cases fail with
	// a *ReductionError instead of growing without limit.
	budget := 200 * (n + 2)
	if budget > 20000 {
		budget = 20000
	}
	return g.reduce(budget)
}
