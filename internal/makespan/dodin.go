package makespan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// ReductionError is the typed failure of a series-parallel reduction:
// the graph could not be contracted to a single node, either because
// cone duplication exhausted the node budget or because no reduction or
// duplication applies (stuck).
type ReductionError struct {
	Live   int  // live nodes remaining
	Total  int  // total nodes ever created
	Budget int  // node budget in force
	Stuck  bool // no duplication candidate existed
}

func (e *ReductionError) Error() string {
	if e.Stuck {
		return fmt.Sprintf("makespan: series-parallel reduction stuck with %d nodes", e.Live)
	}
	return fmt.Sprintf("makespan: series-parallel reduction exceeded node budget (%d live, %d total, budget %d)",
		e.Live, e.Total, e.Budget)
}

// IsReductionError reports whether err is a series-parallel
// ReductionError, as opposed to a structural error such as an invalid
// schedule.
func IsReductionError(err error) bool {
	var re *ReductionError
	return errors.As(err, &re)
}

// rvGraph is a mutable DAG used by Dodin's series-parallel reduction.
// Nodes carry activity random variables (task durations); edges carry
// path random variables (communications and contracted sub-chains).
// Deleted nodes are marked nil.
type rvGraph struct {
	rv   []*stochastic.Numeric
	pred []map[int]struct{}
	succ []map[int]struct{}
	edge map[[2]int]*stochastic.Numeric
	live int
	grid int
}

func newRVGraph(grid int) *rvGraph {
	return &rvGraph{edge: make(map[[2]int]*stochastic.Numeric), grid: grid}
}

func (g *rvGraph) addNode(rv *stochastic.Numeric) int {
	g.rv = append(g.rv, rv)
	g.pred = append(g.pred, map[int]struct{}{})
	g.succ = append(g.succ, map[int]struct{}{})
	g.live++
	return len(g.rv) - 1
}

// addEdge inserts u→v carrying rv; a pre-existing parallel edge merges
// by the maximum (both paths must complete).
func (g *rvGraph) addEdge(u, v int, rv *stochastic.Numeric) {
	key := [2]int{u, v}
	if old, ok := g.edge[key]; ok {
		g.edge[key] = old.MaxWith(rv, g.grid)
		return
	}
	g.edge[key] = rv
	g.succ[u][v] = struct{}{}
	g.pred[v][u] = struct{}{}
}

func (g *rvGraph) edgeRV(u, v int) *stochastic.Numeric { return g.edge[[2]int{u, v}] }

func (g *rvGraph) removeEdge(u, v int) {
	delete(g.edge, [2]int{u, v})
	delete(g.succ[u], v)
	delete(g.pred[v], u)
}

func (g *rvGraph) removeNode(v int) {
	for u := range g.pred[v] {
		delete(g.succ[u], v)
		delete(g.edge, [2]int{u, v})
	}
	for w := range g.succ[v] {
		delete(g.pred[w], v)
		delete(g.edge, [2]int{v, w})
	}
	g.rv[v] = nil
	g.pred[v] = nil
	g.succ[v] = nil
	g.live--
}

// addSeq convolves activity and edge variables, treating nil edges as
// zero.
func (g *rvGraph) addSeq(parts ...*stochastic.Numeric) *stochastic.Numeric {
	out := stochastic.NewPoint(0)
	for _, p := range parts {
		if p == nil {
			continue
		}
		out = out.Add(p, g.grid)
	}
	return out
}

// seriesReduceOnce merges one chain pair u→v where v is u's only
// successor and u is v's only predecessor: the merged node carries
// u ⊕ edge(u,v) ⊕ v. Returns true on success.
func (g *rvGraph) seriesReduceOnce() bool {
	for v := range g.rv {
		if g.rv[v] == nil || len(g.pred[v]) != 1 {
			continue
		}
		u := soleKey(g.pred[v])
		if len(g.succ[u]) != 1 {
			continue
		}
		g.rv[u] = g.addSeq(g.rv[u], g.edgeRV(u, v), g.rv[v])
		// u inherits v's out-edges.
		type out struct {
			w  int
			rv *stochastic.Numeric
		}
		var outs []out
		for _, w := range sortedKeys(g.succ[v]) {
			outs = append(outs, out{w, g.edgeRV(v, w)})
		}
		g.removeNode(v)
		for _, o := range outs {
			g.addEdge(u, o.w, o.rv)
		}
		return true
	}
	return false
}

// chainContractOnce removes one degree-(1,1) node v between u and w,
// replacing the path u→v→w by an edge u→w carrying
// edge(u,v) ⊕ v ⊕ edge(v,w); parallel edges merge by maximum. This is
// the series reduction of classical SP theory (nodes as activities).
func (g *rvGraph) chainContractOnce() bool {
	for v := range g.rv {
		if g.rv[v] == nil || len(g.pred[v]) != 1 || len(g.succ[v]) != 1 {
			continue
		}
		u, w := soleKey(g.pred[v]), soleKey(g.succ[v])
		if u == w {
			continue // cannot happen in a DAG, but stay safe
		}
		// Covered more cheaply by seriesReduceOnce.
		if len(g.succ[u]) == 1 {
			continue
		}
		rv := g.addSeq(g.edgeRV(u, v), g.rv[v], g.edgeRV(v, w))
		g.removeNode(v)
		g.addEdge(u, w, rv)
		return true
	}
	return false
}

// parallelReduceOnce merges one pair of degree-(≤1, ≤1) nodes sharing
// the same (possibly empty) predecessor and the same successor: the
// two parallel single-arc paths combine by the maximum of their total
// path variables. This collapses in-trees and out-trees.
func (g *rvGraph) parallelReduceOnce() bool {
	for u := range g.rv {
		if g.rv[u] == nil || len(g.pred[u]) > 1 || len(g.succ[u]) > 1 {
			continue
		}
		for v := u + 1; v < len(g.rv); v++ {
			if g.rv[v] == nil || len(g.pred[v]) > 1 || len(g.succ[v]) > 1 {
				continue
			}
			if !sameSet(g.pred[u], g.pred[v]) || !sameSet(g.succ[u], g.succ[v]) {
				continue
			}
			pathU := g.rv[u]
			pathV := g.rv[v]
			preds, succs := sortedKeys(g.pred[u]), sortedKeys(g.succ[u])
			for _, p := range preds {
				pathU = g.addSeq(g.edgeRV(p, u), pathU)
				pathV = g.addSeq(g.edgeRV(p, v), pathV)
			}
			for _, w := range succs {
				pathU = g.addSeq(pathU, g.edgeRV(u, w))
				pathV = g.addSeq(pathV, g.edgeRV(v, w))
			}
			merged := pathU.MaxWith(pathV, g.grid)
			g.removeNode(v)
			g.rv[u] = merged
			for _, p := range preds {
				g.removeEdge(p, u)
				g.addEdge(p, u, stochastic.NewPoint(0))
			}
			for _, w := range succs {
				g.removeEdge(u, w)
				g.addEdge(u, w, stochastic.NewPoint(0))
			}
			return true
		}
	}
	return false
}

// soleKey returns the single element of a one-element adjacency set
// (callers guard on len(m) == 1, so iteration order cannot matter).
func soleKey(m map[int]struct{}) int {
	//reprovet:allow mapiter single-element set: the sole iteration is order-free
	for k := range m {
		return k
	}
	panic("makespan: soleKey on empty adjacency set")
}

// sortedKeys returns the elements of an adjacency set in increasing
// order. Every reduction scans adjacency this way, so the reduction
// sequence — and with it the node numbering and the approximation the
// duplications produce — is a pure function of the input graph, not of
// Go's randomized map iteration order.
func sortedKeys(m map[int]struct{}) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sameSet reports set equality of two adjacency maps.
func sameSet(a, b map[int]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// duplicateCone performs one Dodin-style duplication: it finds an arc
// u→v with outdeg(u) > 1 and indeg(v) > 1, detaches it, and re-routes
// it through a fresh copy of u's entire ancestor cone. The copy is
// treated as independent of the original — the approximation Dodin's
// transformation makes when unsharing common sub-structures. Returns
// the number of nodes created (0 when no candidate arc exists).
func (g *rvGraph) duplicateCone() int {
	bestU, bestV := -1, -1
	for u := range g.rv {
		if g.rv[u] == nil || len(g.succ[u]) < 2 {
			continue
		}
		for _, v := range sortedKeys(g.succ[u]) {
			if len(g.pred[v]) < 2 {
				continue
			}
			// Prefer a u with few predecessors so the copied cone stays
			// small.
			if bestU < 0 || len(g.pred[u]) < len(g.pred[bestU]) {
				bestU, bestV = u, v
			}
			break
		}
	}
	if bestU < 0 {
		return 0
	}
	carried := g.edgeRV(bestU, bestV)
	created := 0
	copies := make(map[int]int)
	var copyCone func(x int) int
	copyCone = func(x int) int {
		if d, ok := copies[x]; ok {
			return d
		}
		d := g.addNode(g.rv[x].Clone())
		created++
		copies[x] = d
		for _, p := range sortedKeys(g.pred[x]) {
			var rv *stochastic.Numeric
			if e := g.edgeRV(p, x); e != nil {
				rv = e.Clone()
			} else {
				rv = stochastic.NewPoint(0)
			}
			g.addEdge(copyCone(p), d, rv)
		}
		return d
	}
	dup := copyCone(bestU)
	g.removeEdge(bestU, bestV)
	if carried == nil {
		carried = stochastic.NewPoint(0)
	}
	g.addEdge(dup, bestV, carried)
	return created
}

// reduce runs series/chain/parallel reductions to a fixpoint,
// interleaving cone duplications when stuck, until a single node
// remains or the node budget is exhausted.
func (g *rvGraph) reduce(maxNodes int) (*stochastic.Numeric, error) {
	for g.live > 1 {
		if g.seriesReduceOnce() {
			continue
		}
		if g.chainContractOnce() {
			continue
		}
		if g.parallelReduceOnce() {
			continue
		}
		if len(g.rv) >= maxNodes {
			return nil, &ReductionError{Live: g.live, Total: len(g.rv), Budget: maxNodes}
		}
		if g.duplicateCone() == 0 {
			return nil, &ReductionError{Live: g.live, Total: len(g.rv), Budget: maxNodes, Stuck: true}
		}
	}
	for _, rv := range g.rv {
		if rv != nil {
			return rv, nil
		}
	}
	return stochastic.NewPoint(0), nil
}

// EvaluateDodin evaluates the makespan distribution by Dodin's method
// through the compiled evaluation model (EvalModel.Dodin): the
// disjunctive graph is reduced by series convolutions and parallel
// maxima, and non-series-parallel remainders are unlocked by
// duplicating shared predecessors. A reduction that cannot finish
// returns its *ReductionError; an invalid schedule returns a structural
// error. One-shot convenience: callers evaluating many schedules of one
// scenario should hold an EvalCache and call Model(s).Dodin() directly.
func EvaluateDodin(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	m, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	return m.Dodin()
}

// ReferenceEvaluateDodin is the retained map-based reduction (rvGraph),
// the differential reference for EvalModel.Dodin. Like EvalModel.Dodin
// it returns the *ReductionError when the series-parallel reduction
// cannot finish within its duplication budget.
func ReferenceEvaluateDodin(scen *platform.Scenario, s *schedule.Schedule, gridSize int) (*stochastic.Numeric, error) {
	m, err := NewEvalCache(scen, gridSize).Model(s)
	if err != nil {
		return nil, err
	}
	if gridSize <= 0 {
		gridSize = stochastic.DefaultGridSize
	}
	g := newRVGraph(gridSize)
	d := m.d
	n := d.N
	ids := make([]int, n)
	for t := 0; t < n; t++ {
		// Cached duration variables are shared, never mutated: the
		// reduction always replaces node/edge RVs with fresh results.
		ids[t] = g.addNode(m.dur[t].numeric(gridSize))
	}
	// Unique source and sink so the reduction converges to one node.
	source := g.addNode(stochastic.NewPoint(0))
	sink := g.addNode(stochastic.NewPoint(0))
	for t := 0; t < n; t++ {
		if d.PredStart[t+1] == d.PredStart[t] {
			g.addEdge(source, ids[t], stochastic.NewPoint(0))
		}
		if d.SuccStart[t+1] == d.SuccStart[t] {
			g.addEdge(ids[t], sink, stochastic.NewPoint(0))
		}
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			comm := stochastic.NewPoint(0)
			if e := m.comm[k]; e != nil {
				comm = e.numeric(gridSize)
			}
			g.addEdge(ids[d.PredTask[k]], ids[t], comm)
		}
	}
	// Node budget: generous enough to unshare small graphs completely,
	// bounded so pathological cases fail with a *ReductionError instead
	// of growing without limit.
	budget := 200 * (n + 2)
	if budget > 20000 {
		budget = 20000
	}
	return g.reduce(budget)
}
