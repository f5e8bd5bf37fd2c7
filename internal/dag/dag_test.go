package dag

import (
	"strings"
	"testing"
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
