package graphgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func TestRandomBasicStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 30, 100} {
		g, weights := Random(n, rng)
		if g.N() != n {
			t.Fatalf("n=%d: graph has %d nodes", n, g.N())
		}
		if len(weights) != n {
			t.Fatalf("n=%d: %d weights", n, len(weights))
		}
		if !g.IsAcyclic() {
			t.Fatalf("n=%d: generated graph has a cycle", n)
		}
		// Every non-root node must have at least one parent.
		for i := 1; i < n; i++ {
			if len(g.Pred(dag.Task(i))) == 0 {
				t.Fatalf("n=%d: node %d has no parent", n, i)
			}
		}
		for _, w := range weights {
			if w <= 0 {
				t.Fatalf("n=%d: non-positive weight %g", n, w)
			}
		}
	}
}

func TestRandomWeightStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, weights := Random(2000, rng)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	mean := sum / float64(len(weights))
	if mean < 17 || mean > 23 {
		t.Errorf("task weight mean = %g, want ~20", mean)
	}
}

func TestRandomEdgeVolumesRespectCCR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := Random(200, rng)
	var sum float64
	edges := g.Edges()
	for _, e := range edges {
		if e.Volume < 0 {
			t.Fatalf("negative volume on %v", e)
		}
		sum += e.Volume
	}
	mean := sum / float64(len(edges))
	// CCR = 0.1, MuTask = 20 → mean volume ~2.
	if mean < 1.5 || mean > 2.5 {
		t.Errorf("edge volume mean = %g, want ~2", mean)
	}
}

func TestRandomSeedDeterminism(t *testing.T) {
	g1, w1 := Random(50, rand.New(rand.NewSource(9)))
	g2, w2 := Random(50, rand.New(rand.NewSource(9)))
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestChainForkJoin(t *testing.T) {
	c := Chain(5, 1)
	if c.EdgeCount() != 4 || len(c.Sources()) != 1 || len(c.Sinks()) != 1 {
		t.Error("chain malformed")
	}
	f := Fork(5, 1)
	if f.EdgeCount() != 4 || len(f.Succ(0)) != 4 {
		t.Error("fork malformed")
	}
	j := Join(5, 1)
	if j.EdgeCount() != 4 || len(j.Pred(4)) != 4 {
		t.Error("join malformed")
	}
	if len(j.Sources()) != 4 {
		t.Errorf("join sources = %d, want 4", len(j.Sources()))
	}
}

func TestCholeskyTaskCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 1; n <= 6; n++ {
		g := Cholesky(n, 1, 2, rng)
		if g.N() != CholeskyTaskCount(n) {
			t.Errorf("Cholesky(%d) has %d tasks, want %d", n, g.N(), CholeskyTaskCount(n))
		}
		if !g.IsAcyclic() {
			t.Errorf("Cholesky(%d) cyclic", n)
		}
	}
	// The paper's Fig. 3 graph: N=3 → 10 tasks.
	if CholeskyTaskCount(3) != 10 {
		t.Error("Cholesky(3) should have 10 tasks (paper Fig. 3)")
	}
}

func TestCholeskyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Cholesky(3, 1, 1, rng)
	// Single source: POTRF(0). Single sink: POTRF(2).
	if s := g.Sources(); len(s) != 1 || g.Name(s[0]) != "POTRF(0)" {
		t.Errorf("sources = %v", s)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Name(sinks[0]) != "POTRF(2)" {
		names := make([]string, len(sinks))
		for i, s := range sinks {
			names[i] = g.Name(s)
		}
		t.Errorf("sinks = %v", names)
	}
}

func TestGaussElimTaskCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 2; n <= 8; n++ {
		g := GaussElim(n, 1, 2, rng)
		if g.N() != GaussElimTaskCount(n) {
			t.Errorf("GaussElim(%d) has %d tasks, want %d", n, g.N(), GaussElimTaskCount(n))
		}
		if !g.IsAcyclic() {
			t.Errorf("GaussElim(%d) cyclic", n)
		}
	}
	// The paper's Fig. 5 graph is ~103 tasks; N=14 gives 104.
	if GaussElimTaskCount(14) != 104 {
		t.Errorf("GaussElim(14) = %d tasks, want 104", GaussElimTaskCount(14))
	}
	if GaussElim(1, 1, 1, rng).N() != 0 {
		t.Error("GaussElim(1) should be empty")
	}
}

func TestGaussElimStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := GaussElim(4, 1, 1, rng)
	// Single source P(1); single sink is the last update U(3,4).
	src := g.Sources()
	if len(src) != 1 || g.Name(src[0]) != "P(1)" {
		t.Errorf("GE sources = %v", src)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Name(sinks[0]) != "U(3,4)" {
		names := make([]string, len(sinks))
		for i, s := range sinks {
			names[i] = g.Name(s)
		}
		t.Errorf("GE sinks = %v", names)
	}
	// Depth: P(1) → U(1,2) → P(2) → U(2,3) → P(3) → U(3,4): 6 levels.
	depth, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 5 {
		t.Errorf("GE(4) max depth = %d, want 5", maxDepth)
	}
}

// Property: generated graphs of every kind are acyclic and connected
// enough (no orphan non-source nodes for random graphs).
func TestGeneratorsAcyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, _ := Random(n, rng)
		ch := Cholesky(1+rng.Intn(5), 1, 2, rng)
		ge := GaussElim(2+rng.Intn(6), 1, 2, rng)
		return g.IsAcyclic() && ch.IsAcyclic() && ge.IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
