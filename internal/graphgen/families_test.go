package graphgen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// weaklyConnected reports whether g forms a single weakly connected
// component (treating edges as undirected). Empty and single-task
// graphs count as connected.
func weaklyConnected(g *dag.Graph) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []dag.Task{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lists := range [][]dag.Task{g.Succ(t), g.Pred(t)} {
			for _, u := range lists {
				if !seen[u] {
					seen[u] = true
					visited++
					stack = append(stack, u)
				}
			}
		}
	}
	return visited == n
}

// sameGraph reports whether two graphs are byte-identical in structure:
// same node count, same sorted edge list with identical volumes, same
// task names.
func sameGraph(a, b *dag.Graph) bool {
	if a.N() != b.N() || a.EdgeCount() != b.EdgeCount() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	for t := 0; t < a.N(); t++ {
		if a.Name(dag.Task(t)) != b.Name(dag.Task(t)) {
			return false
		}
	}
	return true
}

// newFamilies enumerates the new generators with their exact
// task-count formulas, for the shared property sweep. Each gen must
// consume only the given rng, so a fixed seed reproduces the graph
// byte for byte.
var newFamilies = []struct {
	name  string
	sizes []int // generator-specific size parameters to sweep
	count func(size int) int
	gen   func(size int, rng *rand.Rand) *dag.Graph
}{
	{
		name:  "intree",
		sizes: []int{1, 2, 7, 20, 61},
		count: func(n int) int { return n },
		gen:   func(n int, rng *rand.Rand) *dag.Graph { return InTree(n, 2, 10, 20, rng) },
	},
	{
		name:  "outtree",
		sizes: []int{1, 2, 7, 20, 61},
		count: func(n int) int { return n },
		gen:   func(n int, rng *rand.Rand) *dag.Graph { return OutTree(n, 3, 10, 20, rng) },
	},
	{
		name:  "seriesparallel",
		sizes: []int{2, 3, 10, 40, 97},
		count: func(n int) int { return n },
		gen:   func(n int, rng *rand.Rand) *dag.Graph { return SeriesParallel(n, 10, 20, rng) },
	},
	{
		name:  "fft",
		sizes: []int{2, 4, 8, 16},
		count: FFTTaskCount,
		gen:   func(p int, rng *rand.Rand) *dag.Graph { return FFT(p, 10, 20, rng) },
	},
	{
		name:  "strassen",
		sizes: []int{0, 1, 2},
		count: StrassenTaskCount,
		gen:   func(r int, rng *rand.Rand) *dag.Graph { return Strassen(r, 10, 20, rng) },
	},
	{
		name:  "stg",
		sizes: []int{3, 4, 12, 50, 120},
		count: func(n int) int { return n },
		gen: func(n int, rng *rand.Rand) *dag.Graph {
			return STG(n, 10, 20, rng)
		},
	},
}

// Every new generator must produce an acyclic, weakly connected graph
// with exactly the task count its formula promises, and be
// byte-identical for a fixed seed.
func TestNewFamilyProperties(t *testing.T) {
	for _, fam := range newFamilies {
		for _, size := range fam.sizes {
			g := fam.gen(size, rand.New(rand.NewSource(77)))
			if got, want := g.N(), fam.count(size); got != want {
				t.Errorf("%s(%d): %d tasks, want %d", fam.name, size, got, want)
			}
			if !g.IsAcyclic() {
				t.Errorf("%s(%d): cyclic", fam.name, size)
			}
			if !weaklyConnected(g) {
				t.Errorf("%s(%d): not a single weakly connected component", fam.name, size)
			}
			for _, e := range g.Edges() {
				if e.Volume < 10 || e.Volume > 20 {
					t.Errorf("%s(%d): edge volume %g outside [10,20]", fam.name, size, e.Volume)
				}
			}
			again := fam.gen(size, rand.New(rand.NewSource(77)))
			if !sameGraph(g, again) {
				t.Errorf("%s(%d): not deterministic for a fixed seed", fam.name, size)
			}
			if other := fam.gen(size, rand.New(rand.NewSource(78))); g.EdgeCount() > 0 &&
				sameGraph(g, other) && fam.name != "intree" && fam.name != "outtree" && fam.name != "fft" {
				// The randomized families must actually respond to the
				// seed (trees and FFT are structurally fixed; only
				// their volumes vary, which sameGraph also catches).
				t.Errorf("%s(%d): identical graph under different seeds", fam.name, size)
			}
		}
	}
}

func TestTreeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	out := OutTree(7, 2, 1, 1, rng)
	if len(out.Sources()) != 1 || out.Sources()[0] != 0 {
		t.Errorf("out-tree sources = %v, want [0]", out.Sources())
	}
	if len(out.Sinks()) != 4 {
		t.Errorf("complete binary out-tree of 7 has %d sinks, want 4 leaves", len(out.Sinks()))
	}
	in := InTree(7, 2, 1, 1, rng)
	if len(in.Sinks()) != 1 || in.Sinks()[0] != 0 {
		t.Errorf("in-tree sinks = %v, want [0]", in.Sinks())
	}
	if len(in.Sources()) != 4 {
		t.Errorf("complete binary in-tree of 7 has %d sources, want 4 leaves", len(in.Sources()))
	}
}

func TestSeriesParallelTwoTerminal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := SeriesParallel(30, 1, 2, rand.New(rand.NewSource(seed)))
		if s := g.Sources(); len(s) != 1 || s[0] != 0 {
			t.Fatalf("seed %d: sources = %v, want single task 0", seed, s)
		}
		if s := g.Sinks(); len(s) != 1 || s[0] != 1 {
			t.Fatalf("seed %d: sinks = %v, want single task 1", seed, s)
		}
	}
}

func TestFFTButterflyStructure(t *testing.T) {
	g := FFT(8, 1, 1, rand.New(rand.NewSource(2)))
	// 8-point FFT: 4 ranks of 8 tasks, every interior task has exactly
	// two predecessors and two successors.
	if g.N() != 32 {
		t.Fatalf("FFT(8) has %d tasks, want 32", g.N())
	}
	if len(g.Sources()) != 8 || len(g.Sinks()) != 8 {
		t.Fatalf("FFT(8) has %d sources, %d sinks, want 8 and 8", len(g.Sources()), len(g.Sinks()))
	}
	for t2 := 8; t2 < 32; t2++ {
		if len(g.Pred(dag.Task(t2))) != 2 {
			t.Fatalf("task %d has %d predecessors, want 2", t2, len(g.Pred(dag.Task(t2))))
		}
	}
	// Non-power-of-two sizes round down.
	if got := FFT(11, 1, 1, rand.New(rand.NewSource(3))).N(); got != 32 {
		t.Errorf("FFT(11) rounded to %d tasks, want 32 (p=8)", got)
	}
	if FFTTaskCount(8) != 32 || FFTTaskCount(2) != 4 {
		t.Error("FFTTaskCount formula wrong")
	}
}

func TestStrassenStructure(t *testing.T) {
	if StrassenTaskCount(0) != 1 || StrassenTaskCount(1) != 25 || StrassenTaskCount(2) != 193 {
		t.Fatalf("Strassen task counts = %d, %d, %d; want 1, 25, 193",
			StrassenTaskCount(0), StrassenTaskCount(1), StrassenTaskCount(2))
	}
	g := Strassen(1, 1, 1, rand.New(rand.NewSource(4)))
	// One level: the ten S additions are the sources, the four quadrant
	// finals the sinks.
	if len(g.Sources()) != 10 {
		t.Errorf("Strassen(1) has %d sources, want the 10 operand additions", len(g.Sources()))
	}
	if len(g.Sinks()) != 4 {
		t.Errorf("Strassen(1) has %d sinks, want the 4 quadrant results", len(g.Sinks()))
	}
}

func TestSTGRespectsJumpAndLayers(t *testing.T) {
	g := STG(60, 1, 1, rand.New(rand.NewSource(5)))
	if g.N() != 60 {
		t.Fatalf("STG has %d tasks, want 60", g.N())
	}
	// The single entry and exit must bracket everything.
	if len(g.Sources()) != 1 || g.Sources()[0] != 0 {
		t.Errorf("STG sources = %v, want the single entry", g.Sources())
	}
	if len(g.Sinks()) != 1 || g.Sinks()[0] != 59 {
		t.Errorf("STG sinks = %v, want the single exit", g.Sinks())
	}
	// Interior tasks are named "L<layer>/<task>" after their generator
	// layer: every interior edge runs forward by 1 to stgJump layers.
	layer := func(v dag.Task) int {
		var l, id int
		if _, err := fmt.Sscanf(g.Name(v), "L%d/%d", &l, &id); err != nil || id != int(v) {
			t.Fatalf("task %d named %q, want L<layer>/%d", v, g.Name(v), v)
		}
		return l
	}
	spans := map[int]int{}
	for _, e := range g.Edges() {
		if e.From == 0 || e.To == 59 {
			continue
		}
		d := layer(e.To) - layer(e.From)
		if d < 1 || d > stgJump {
			t.Errorf("edge %d->%d spans %d layers, want 1..%d", e.From, e.To, d, stgJump)
		}
		spans[d]++
	}
	if spans[stgJump] == 0 {
		t.Errorf("no edge spans the full jump of %d layers: %v", stgJump, spans)
	}
}
