package platform

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/stochastic"
)

func TestCommClassesUniformNetwork(t *testing.T) {
	tau, lat := NewUniformNetwork(4, 1, 0)
	p := &Platform{M: 4, Tau: tau, Lat: lat}
	cc := p.CommClasses()
	if len(cc.Lat) != 1 {
		t.Fatalf("uniform network: %d classes, want 1", len(cc.Lat))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c := cc.Class[i*4+j]
			if i == j && c != -1 {
				t.Fatalf("diagonal (%d,%d) class %d, want -1", i, j, c)
			}
			if i != j && c != 0 {
				t.Fatalf("pair (%d,%d) class %d, want 0", i, j, c)
			}
		}
	}
	if cc.Tau[0] != 1 || cc.Lat[0] != 0 {
		t.Fatalf("class params (tau=%g, lat=%g), want (1, 0)", cc.Tau[0], cc.Lat[0])
	}
}

func TestCommClassesHeterogeneous(t *testing.T) {
	// Distinct (lat, tau) per direction of each pair: every off-diagonal
	// pair its own class.
	m := 3
	tauM := make([][]float64, m)
	latM := make([][]float64, m)
	for i := range tauM {
		tauM[i] = make([]float64, m)
		latM[i] = make([]float64, m)
		for j := range tauM[i] {
			if i != j {
				tauM[i][j] = float64(1 + i*m + j)
				latM[i][j] = float64(10 + i*m + j)
			}
		}
	}
	p := &Platform{M: m, Tau: tauM, Lat: latM}
	cc := p.CommClasses()
	if len(cc.Lat) != m*(m-1) {
		t.Fatalf("%d classes, want %d", len(cc.Lat), m*(m-1))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			c := cc.Class[i*m+j]
			if cc.Lat[c] != latM[i][j] || cc.Tau[c] != tauM[i][j] {
				t.Fatalf("pair (%d,%d): class params diverge", i, j)
			}
		}
	}
}

// BatchCommCosts with the mean statistic must reproduce the mean of
// CommDist exactly (bitwise) for every pair and edge — the compiled
// heuristics rely on it.
func TestBatchCommMeansMatchesMeanComm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m := 12, 3
	g := dag.New(n)
	var vols []float64
	type edge struct{ from, to dag.Task }
	var edges []edge
	for i := 0; i < n-1; i++ {
		v := rng.Float64() * 20
		if err := g.AddEdge(dag.Task(i), dag.Task(i+1), v); err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
		edges = append(edges, edge{dag.Task(i), dag.Task(i + 1)})
	}
	tau, lat := NewUniformNetwork(m, 0.7, 0.3)
	scen := &Scenario{
		G:  g,
		P:  &Platform{M: m, ETC: GenerateETCUniform(n, m, 10, 20, rng), Tau: tau, Lat: lat},
		UL: 1.4,
	}
	cc := scen.P.CommClasses()
	means := scen.BatchCommCosts(cc, vols, stochastic.Dist.Mean)
	for ei, e := range edges {
		for pi := 0; pi < m; pi++ {
			for pj := 0; pj < m; pj++ {
				want := scen.CommDist(e.from, e.to, pi, pj).Mean()
				var got float64
				if c := cc.Class[pi*m+pj]; c >= 0 {
					got = means[c][ei]
				}
				if got != want {
					t.Fatalf("edge %d pair (%d,%d): batch mean %v, CommDist mean %v",
						ei, pi, pj, got, want)
				}
			}
		}
	}
}
