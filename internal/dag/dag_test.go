package dag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the 4-node diamond 0→{1,2}→3 with unit volumes.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	for _, e := range [][2]Task{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1, 0); err == nil {
		t.Error("accepted self-loop")
	}
	if err := g.AddEdge(0, 5, 0); err == nil {
		t.Error("accepted out-of-range edge")
	}
	if err := g.AddEdge(-1, 0, 0); err == nil {
		t.Error("accepted negative task")
	}
	// Duplicate keeps the larger volume and does not duplicate adjacency.
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if g.Volume(0, 1) != 5 {
		t.Errorf("volume = %g, want 5", g.Volume(0, 1))
	}
	if len(g.Succ(0)) != 1 || len(g.Pred(1)) != 1 {
		t.Error("duplicate edge duplicated adjacency")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("edge count = %d, want 1", g.EdgeCount())
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("sinks = %v, want [3]", s)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[Task]int)
	for i, t := range order {
		pos[t] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topo order violates edge %v", e)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1, 0)
	_ = g.AddEdge(1, 2, 0)
	if !g.IsAcyclic() {
		t.Error("chain reported cyclic")
	}
	_ = g.AddEdge(2, 0, 0)
	if g.IsAcyclic() {
		t.Error("cycle not detected")
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Error("TopoOrder accepted a cycle")
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	depth, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if depth[i] != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, depth[i], want[i])
		}
	}
}

func TestTopBottomLevels(t *testing.T) {
	g := diamond(t)
	w := []float64{1, 2, 3, 4}
	edge := func(from, to Task) float64 { return 10 * g.Volume(from, to) }

	tl, err := g.TopLevels(w, edge)
	if err != nil {
		t.Fatal(err)
	}
	// Tl(0)=0; Tl(1)=Tl(2)=1+10=11; Tl(3)=max(11+2,11+3)+10=24.
	wantTl := []float64{0, 11, 11, 24}
	for i := range wantTl {
		if tl[i] != wantTl[i] {
			t.Errorf("Tl[%d] = %g, want %g", i, tl[i], wantTl[i])
		}
	}

	bl, err := g.BottomLevels(w, edge)
	if err != nil {
		t.Fatal(err)
	}
	// Bl(3)=4; Bl(1)=2+10+4=16; Bl(2)=3+10+4=17; Bl(0)=1+10+17=28.
	wantBl := []float64{28, 16, 17, 4}
	for i := range wantBl {
		if bl[i] != wantBl[i] {
			t.Errorf("Bl[%d] = %g, want %g", i, bl[i], wantBl[i])
		}
	}

	cp, err := g.CriticalPathLength(w, edge)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 28 {
		t.Errorf("critical path length = %g, want 28", cp)
	}
}

func TestSlacks(t *testing.T) {
	g := diamond(t)
	w := []float64{1, 2, 3, 4}
	edge := func(from, to Task) float64 { return 10 * g.Volume(from, to) }
	slacks, err := g.Slacks(w, edge)
	if err != nil {
		t.Fatal(err)
	}
	// M = 28. s0 = 28-0-28 = 0; s1 = 28-11-16 = 1; s2 = 0; s3 = 0.
	want := []float64{0, 1, 0, 0}
	for i := range want {
		if slacks[i] != want[i] {
			t.Errorf("slack[%d] = %g, want %g", i, slacks[i], want[i])
		}
	}
}

func TestSlackNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					_ = g.AddEdge(Task(i), Task(j), rng.Float64()*5)
				}
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()*10 + 0.1
		}
		edge := func(from, to Task) float64 { return g.Volume(from, to) }
		slacks, err := g.Slacks(w, edge)
		if err != nil {
			return false
		}
		// At least one task must be on the critical path (slack 0) and
		// no slack may be negative.
		sawZero := false
		for _, s := range slacks {
			if s < 0 {
				return false
			}
			if s < 1e-9 {
				sawZero = true
			}
		}
		return sawZero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	_ = c.AddEdge(1, 2, 7)
	if g.HasEdge(1, 2) {
		t.Error("clone shares edge storage with original")
	}
	if !c.HasEdge(1, 2) {
		t.Error("clone lost its own edge")
	}
}

func TestNames(t *testing.T) {
	g := New(2)
	if g.Name(1) != "t1" {
		t.Errorf("default name = %q, want t1", g.Name(1))
	}
	g.SetName(1, "pivot")
	if g.Name(1) != "pivot" {
		t.Errorf("name = %q, want pivot", g.Name(1))
	}
}

func TestDOT(t *testing.T) {
	g := diamond(t)
	dot := g.DOT("diamond", nil)
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "label=\"1\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestZeroEdgesHelper(t *testing.T) {
	if ZeroEdges(0, 1) != 0 {
		t.Error("ZeroEdges must return 0")
	}
	g := diamond(t)
	w := []float64{1, 1, 1, 1}
	cp, err := g.CriticalPathLength(w, nil) // nil must behave like ZeroEdges
	if err != nil {
		t.Fatal(err)
	}
	if cp != 3 {
		t.Errorf("critical path without comm = %g, want 3", cp)
	}
}
