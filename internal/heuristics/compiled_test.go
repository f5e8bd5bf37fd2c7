package heuristics

// Unit tests of the compiled building blocks: the gap-indexed timeline
// against the linear-scan reference, the level-pruned grouping against
// the bitset reference, and the zero-duration tie-break regression of
// buildFromPlacement.

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/platform"
)

// TestTimelineMatchesInsertionScan drives a timeline and the
// reference slot slice with the same random query/insert stream —
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
// grouping against the reachability-bitset reference on random and
// structured DAGs.
func TestIndependentGroupsCSRMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	graphs := []*dag.Graph{
		graphgen.Chain(12, 1),
		graphgen.Fork(8, 1),
		graphgen.Join(8, 1),
	}
	for i := 0; i < 10; i++ {
		g, _ := graphgen.Random(graphgen.DefaultRandomParams(5+rng.Intn(60)), rng)
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
// at 0. All four heuristics — compiled and reference — must emit valid
// schedules.
func TestZeroDurationTieBreak(t *testing.T) {
	for _, m := range []int{1, 3} {
		scen := zeroDurScenario(m)
		for _, h := range []struct {
			name string
			fn   func(*platform.Scenario) (Result, error)
		}{
			{"HEFT", HEFT}, {"ReferenceHEFT", ReferenceHEFT},
			{"BIL", BIL}, {"ReferenceBIL", ReferenceBIL},
			{"HBMCT", HBMCT}, {"ReferenceHBMCT", ReferenceHBMCT},
			{"SDHEFT", func(s *platform.Scenario) (Result, error) { return SDHEFT(s, 1) }},
			{"ReferenceSDHEFT", func(s *platform.Scenario) (Result, error) { return ReferenceSDHEFT(s, 1) }},
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

// TestCostModelMatchesModel pins the compiled tables against the
// Model-based values bit-for-bit on a heterogeneous scenario.
func TestCostModelMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, w := graphgen.Random(graphgen.DefaultRandomParams(40), rng)
	tau, lat := platform.NewUniformNetwork(4, 0.8, 0.2)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: 4, ETC: platform.GenerateETCFromWeights(w, 4, 0.5, rng), Tau: tau, Lat: lat},
		UL: 1.3,
	}
	ref := NewModel(scen)
	cm, err := NewCostModel(scen)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < cm.N; task++ {
		for p := 0; p < cm.M; p++ {
			if cm.MeanETC[task*cm.M+p] != ref.MeanETC[task][p] {
				t.Fatalf("MeanETC[%d][%d] diverges", task, p)
			}
		}
		if cm.AvgDur[task] != ref.AvgDur[task] {
			t.Fatalf("AvgDur[%d] diverges", task)
		}
	}
	csr := cm.csr
	for task := 0; task < cm.N; task++ {
		for k := csr.SuccStart[task]; k < csr.SuccStart[task+1]; k++ {
			to := dag.Task(csr.SuccAdj[k])
			e := csr.SuccEdge[k]
			if cm.EdgeAvgComm[e] != ref.AvgComm(dag.Task(task), to) {
				t.Fatalf("AvgComm(%d,%d) diverges", task, to)
			}
			for pi := 0; pi < cm.M; pi++ {
				for pj := 0; pj < cm.M; pj++ {
					if cm.Comm(e, pi, pj) != ref.MeanComm(dag.Task(task), to, pi, pj) {
						t.Fatalf("MeanComm(%d,%d,%d,%d) diverges", task, to, pi, pj)
					}
				}
			}
		}
	}
	// Rank machinery agrees bitwise as well.
	wantRank, err := ref.UpwardRanks()
	if err != nil {
		t.Fatal(err)
	}
	gotRank := cm.UpwardRanks()
	for i := range wantRank {
		if gotRank[i] != wantRank[i] {
			t.Fatalf("rank[%d] diverges", i)
		}
	}
	wantOrder, err := ref.RankOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range cm.RankOrder() {
		if task != wantOrder[i] {
			t.Fatalf("rank order position %d diverges", i)
		}
	}
}
