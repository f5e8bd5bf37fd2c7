// Package platform models the heterogeneous target of the paper: m
// unrelated processors with per-task minimum computation times (the ETC
// matrix) and pairwise communication characteristics T = (τij) and
// L = (lij), with τii = lii = 0 so co-located tasks communicate for
// free.
package platform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stochastic"
)

// Platform describes the target system.
type Platform struct {
	M   int         // number of processors
	ETC [][]float64 // n×m: minimum computation time of task i on processor j
	Tau [][]float64 // m×m: per-data-element transfer time τij (τii = 0)
	Lat [][]float64 // m×m: network latency lij (lii = 0)
}

// N returns the number of tasks covered by the ETC matrix.
func (p *Platform) N() int { return len(p.ETC) }

// Validate checks structural invariants: matrix shapes, zero diagonals,
// finite non-negative entries.
func (p *Platform) Validate() error {
	if p.M <= 0 {
		return fmt.Errorf("platform: M = %d", p.M)
	}
	for i, row := range p.ETC {
		if len(row) != p.M {
			return fmt.Errorf("platform: ETC row %d has %d entries, want %d", i, len(row), p.M)
		}
		for j, v := range row {
			if !finiteNonNegative(v) {
				return fmt.Errorf("platform: ETC[%d][%d] = %g, want finite and >= 0", i, j, v)
			}
		}
	}
	// τ before latency, always: ranging over a map here made the
	// reported first error flip between runs when both matrices were
	// invalid (map iteration order is randomized — the exact bug class
	// cmd/reprovet's mapiter analyzer now rejects).
	for _, nm := range []struct {
		name string
		m    [][]float64
	}{{"tau", p.Tau}, {"lat", p.Lat}} {
		name, m := nm.name, nm.m
		if len(m) != p.M {
			return fmt.Errorf("platform: %s has %d rows, want %d", name, len(m), p.M)
		}
		for i, row := range m {
			if len(row) != p.M {
				return fmt.Errorf("platform: %s row %d has %d entries, want %d", name, i, len(row), p.M)
			}
			if row[i] != 0 { //reprovet:allow floateq zero diagonal is an exact structural invariant, not a computed value
				return fmt.Errorf("platform: %s[%d][%d] = %g, diagonal must be 0", name, i, i, row[i])
			}
			for j, v := range row {
				if !finiteNonNegative(v) {
					return fmt.Errorf("platform: %s[%d][%d] = %g, want finite and >= 0", name, i, j, v)
				}
			}
		}
	}
	return nil
}

// finiteNonNegative reports whether v is finite and non-negative; the
// comparison alone is false for NaN and -Inf.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// MinCommTime returns the minimum time to ship `volume` data elements
// from processor pi to pj: lij + volume·τij, and 0 when pi == pj.
func (p *Platform) MinCommTime(volume float64, pi, pj int) float64 {
	if pi == pj {
		return 0
	}
	return p.Lat[pi][pj] + volume*p.Tau[pi][pj]
}

// AvgTau returns the average off-diagonal τ (used by rank-based
// heuristics to estimate communication costs before placement).
func (p *Platform) AvgTau() float64 {
	if p.M <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.M; j++ {
			if i != j {
				sum += p.Tau[i][j]
			}
		}
	}
	return sum / float64(p.M*(p.M-1))
}

// AvgLat returns the average off-diagonal latency.
func (p *Platform) AvgLat() float64 {
	if p.M <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.M; j++ {
			if i != j {
				sum += p.Lat[i][j]
			}
		}
	}
	return sum / float64(p.M*(p.M-1))
}

// uniformMatrix builds an m×m matrix with the given off-diagonal value.
func uniformMatrix(m int, v float64) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, m)
		for j := range out[i] {
			if i != j {
				out[i][j] = v
			}
		}
	}
	return out
}

// NewUniformNetwork returns τ and latency matrices with homogeneous
// off-diagonal values (the paper found latency's influence negligible
// and uses comparable computation/communication magnitudes).
func NewUniformNetwork(m int, tau, lat float64) (tauM, latM [][]float64) {
	return uniformMatrix(m, tau), uniformMatrix(m, lat)
}

// GenerateETCFromWeights builds the ETC matrix used for the random
// graphs by the coefficient-of-variation method of Ali et al. (the
// method the paper cites): the graph generator supplies per-task
// average costs, and each processor draws Gamma(mean=weight_i,
// CV=vMach).
func GenerateETCFromWeights(weights []float64, m int, vMach float64, rng *rand.Rand) [][]float64 {
	etc := make([][]float64, len(weights))
	for i, w := range weights {
		row := make([]float64, m)
		machDist := stochastic.GammaFromMeanCV(w, vMach)
		for j := 0; j < m; j++ {
			v := machDist.Sample(rng)
			if v < 1e-3 {
				v = 1e-3
			}
			row[j] = v
		}
		etc[i] = row
	}
	return etc
}

// GenerateETCUniform builds the real-application ETC of §V: for each
// task a random minimum value minVal_i ~ U[minLo, minHi], and each
// processor's time uniform in [minVal_i, 2·minVal_i].
func GenerateETCUniform(n, m int, minLo, minHi float64, rng *rand.Rand) [][]float64 {
	etc := make([][]float64, n)
	for i := 0; i < n; i++ {
		minVal := minLo + rng.Float64()*(minHi-minLo)
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = minVal * (1 + rng.Float64())
		}
		etc[i] = row
	}
	return etc
}
