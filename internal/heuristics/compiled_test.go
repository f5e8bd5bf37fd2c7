package heuristics

// Unit tests of the compiled building blocks: the gap-indexed timeline
// against the linear-scan oracle, the level-pruned grouping against
// the reachability-bitset oracle, the cost tables against the duration
// laws they summarize, and the zero-duration tie-break regression of
// buildFromPlacement.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/platform"
)

// insertionStart is the timeline oracle: the earliest start >= est on
// a processor whose busy slots are sorted by start time, allowing
// insertion into idle gaps large enough for dur, found by a linear
// scan.
func insertionStart(slots []slot, est, dur float64) float64 {
	cur := est
	for _, s := range slots {
		if almostLE(cur+dur, s.start) {
			return cur
		}
		if s.finish > cur {
			cur = s.finish
		}
	}
	return cur
}

// insertSlot adds a busy interval keeping the slice sorted by start.
func insertSlot(slots []slot, s slot) []slot {
	idx := sort.Search(len(slots), func(i int) bool { return slots[i].start >= s.start })
	slots = append(slots, slot{})
	copy(slots[idx+1:], slots[idx:])
	slots[idx] = s
	return slots
}

// reachability is the grouping oracle's closure: reach[i] has bit j set
// when there is a path i → j. O(n²) bits.
func reachability(g *dag.Graph) [][]uint64 {
	n := g.N()
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for i := range reach {
		reach[i] = make([]uint64, words)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return reach
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		for _, s := range g.Succ(t) {
			reach[t][int(s)/64] |= 1 << (uint(s) % 64)
			for w := 0; w < words; w++ {
				reach[t][w] |= reach[s][w]
			}
		}
	}
	return reach
}

// connected reports whether a and b are related by a path in either
// direction.
func connected(reach [][]uint64, a, b dag.Task) bool {
	if reach[a][int(b)/64]&(1<<(uint(b)%64)) != 0 {
		return true
	}
	return reach[b][int(a)/64]&(1<<(uint(a)%64)) != 0
}

// independentGroups is the grouping oracle: it splits a rank-ordered
// task list into maximal consecutive groups of pairwise independent
// tasks.
func independentGroups(order []dag.Task, reach [][]uint64) [][]dag.Task {
	var groups [][]dag.Task
	var cur []dag.Task
	for _, t := range order {
		dependent := false
		for _, u := range cur {
			if connected(reach, t, u) {
				dependent = true
				break
			}
		}
		if dependent {
			groups = append(groups, cur)
			cur = nil
		}
		cur = append(cur, t)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// TestTimelineMatchesInsertionScan drives a timeline and the
// oracle's slot slice with the same random query/insert stream —
// including zero durations and ε-adjacent placements — and requires
// bit-identical answers at every step.
func TestTimelineMatchesInsertionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var tl timeline
		var slots []slot
		for step := 0; step < 60; step++ {
			est := rng.Float64() * 50
			dur := rng.Float64() * 10
			switch rng.Intn(4) {
			case 0:
				dur = 0 // zero-duration task
			case 1:
				// Query at an existing boundary to hit the ε paths.
				if len(slots) > 0 {
					s := slots[rng.Intn(len(slots))]
					if rng.Intn(2) == 0 {
						est = s.start
					} else {
						est = s.finish
					}
				}
			}
			want := insertionStart(slots, est, dur)
			got := tl.earliest(est, dur)
			if got != want {
				t.Fatalf("trial %d step %d: earliest(%v,%v) = %v, insertionStart = %v",
					trial, step, est, dur, got, want)
			}
			s := slot{start: want, finish: want + dur}
			slots = insertSlot(slots, s)
			tl.add(s)
			if len(tl.slots) != len(slots) {
				t.Fatalf("slot counts diverge: %d vs %d", len(tl.slots), len(slots))
			}
			for i := range slots {
				if tl.slots[i] != slots[i] {
					t.Fatalf("trial %d step %d: slot %d diverges: %+v vs %+v",
						trial, step, i, tl.slots[i], slots[i])
				}
			}
		}
	}
}

// TestIndependentGroupsCSRMatchesBitset checks the level-pruned
// grouping against the reachability-bitset oracle on random and
// structured DAGs.
func TestIndependentGroupsCSRMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	graphs := []*dag.Graph{
		graphgen.Chain(12, 1),
		graphgen.Fork(8, 1),
		graphgen.Join(8, 1),
	}
	for i := 0; i < 10; i++ {
		g, _ := graphgen.Random(5+rng.Intn(60), rng)
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		// Exercise non-topo rank-like orders too: grouping must agree
		// for any input order.
		orders := [][]dag.Task{order}
		shuffled := append([]dag.Task(nil), order...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		orders = append(orders, shuffled)

		csr := g.CSR()
		depth := csr.Depths(order)
		reach := reachability(g)
		for oi, ord := range orders {
			want := independentGroups(ord, reach)
			got := independentGroupsCSR(csr, ord, depth)
			if len(got) != len(want) {
				t.Fatalf("graph %d order %d: %d groups, want %d", gi, oi, len(got), len(want))
			}
			for gi2 := range want {
				if len(got[gi2]) != len(want[gi2]) {
					t.Fatalf("graph %d order %d group %d: size %d, want %d",
						gi, oi, gi2, len(got[gi2]), len(want[gi2]))
				}
				for k := range want[gi2] {
					if got[gi2][k] != want[gi2][k] {
						t.Fatalf("graph %d order %d group %d: member %d is %d, want %d",
							gi, oi, gi2, k, got[gi2][k], want[gi2][k])
					}
				}
			}
		}
	}
}

// zeroDurScenario builds the degenerate case of the tie-break fix: a
// predecessor with a HIGHER task index than its zero-duration
// successor chain, so every start time ties at 0 and append-order
// tie-breaking would emit the successor first.
func zeroDurScenario(m int) *platform.Scenario {
	g := dag.New(4)
	// 2 → 0 → 3, plus independent 1; all durations zero.
	_ = g.AddEdge(2, 0, 0)
	_ = g.AddEdge(0, 3, 0)
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	etc := make([][]float64, 4)
	for i := range etc {
		etc[i] = make([]float64, m)
	}
	return &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: m, ETC: etc, Tau: tau, Lat: lat},
		UL: 1,
	}
}

// TestZeroDurationTieBreak is the regression test of the zero-duration
// tie-break fixes: with zero-duration tasks every start time (and
// every rank) ties at 0, so the old append-order tie-break in
// buildFromPlacement could order a successor before its predecessor on
// the same processor (cyclic disjunctive graph), the old index
// tie-break in RankOrder could feed HBMCT a non-precedence-compatible
// sequence (negative-index panic on an unplaced predecessor), and
// HBMCT's rebalancing dereferenced task -1 when a whole group finishes
// at 0. All four heuristics must emit valid schedules.
func TestZeroDurationTieBreak(t *testing.T) {
	for _, m := range []int{1, 3} {
		scen := zeroDurScenario(m)
		for _, h := range []struct {
			name string
			fn   func(*platform.Scenario) (Result, error)
		}{
			{"HEFT", HEFT}, {"BIL", BIL}, {"HBMCT", HBMCT},
			{"SDHEFT", func(s *platform.Scenario) (Result, error) { return SDHEFT(s, 1) }},
		} {
			res, err := h.fn(scen)
			if err != nil {
				t.Fatalf("m=%d %s: %v", m, h.name, err)
			}
			if err := res.Schedule.Validate(scen.G); err != nil {
				t.Errorf("m=%d %s: zero-duration schedule invalid: %v", m, h.name, err)
			}
		}
	}
}

// TestCostModelMatchesModel pins the compiled tables bit for bit
// against the mean model they compile, read straight from the
// scenario's duration laws on a heterogeneous scenario: mean ETCs,
// their processor averages, placement-agnostic communication means
// (the family mean of the minimum averaged over processor pairs),
// concrete communication means, and upward ranks. The rank order must
// sort by decreasing rank with ties by topological position.
func TestCostModelMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, w := graphgen.Random(40, rng)
	tau, lat := platform.NewUniformNetwork(4, 0.8, 0.2)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 4, ETC: platform.GenerateETCFromWeights(w, 4, 0.5, rng), Tau: tau, Lat: lat},
		UL: 1.3,
	}
	cm, err := NewCostModel(scen)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < cm.N; task++ {
		var sum float64
		for p := 0; p < cm.M; p++ {
			mean := scen.TaskDist(dag.Task(task), p).Mean()
			if cm.MeanETC[task*cm.M+p] != mean {
				t.Fatalf("MeanETC[%d][%d] diverges", task, p)
			}
			sum += mean
		}
		if cm.AvgDur[task] != sum/float64(cm.M) {
			t.Fatalf("AvgDur[%d] diverges", task)
		}
	}
	avgComm := map[[2]dag.Task]float64{}
	csr := cm.csr
	for task := 0; task < cm.N; task++ {
		for k := csr.SuccStart[task]; k < csr.SuccStart[task+1]; k++ {
			to := dag.Task(csr.SuccAdj[k])
			e := csr.SuccEdge[k]
			want := scen.MeanAt(scen.P.AvgLat() + g.Volume(dag.Task(task), to)*scen.P.AvgTau())
			if cm.EdgeAvgComm[e] != want {
				t.Fatalf("EdgeAvgComm(%d,%d) diverges", task, to)
			}
			avgComm[[2]dag.Task{dag.Task(task), to}] = want
			for pi := 0; pi < cm.M; pi++ {
				for pj := 0; pj < cm.M; pj++ {
					if cm.Comm(e, pi, pj) != scen.CommDist(dag.Task(task), to, pi, pj).Mean() {
						t.Fatalf("Comm(%d,%d,%d,%d) diverges", task, to, pi, pj)
					}
				}
			}
		}
	}
	// rank(i) = AvgDur(i) + max over successors s of (comm(i,s) + rank(s)).
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	wantRank := make([]float64, cm.N)
	pos := make([]int, cm.N)
	for i := len(order) - 1; i >= 0; i-- {
		task := order[i]
		pos[task] = i
		best := 0.0
		for _, s := range g.Succ(task) {
			best = max(best, avgComm[[2]dag.Task{task, s}]+wantRank[s])
		}
		wantRank[task] = cm.AvgDur[task] + best
	}
	gotRank := cm.UpwardRanks()
	for i := range wantRank {
		if gotRank[i] != wantRank[i] {
			t.Fatalf("rank[%d] diverges", i)
		}
	}
	rankOrder := cm.RankOrder()
	if len(rankOrder) != cm.N {
		t.Fatalf("rank order holds %d tasks, want %d", len(rankOrder), cm.N)
	}
	for i := 1; i < len(rankOrder); i++ {
		a, b := rankOrder[i-1], rankOrder[i]
		if wantRank[a] < wantRank[b] || (wantRank[a] <= wantRank[b] && pos[a] > pos[b]) {
			t.Fatalf("rank order positions %d and %d out of order", i-1, i)
		}
	}
}
