package platform

import "repro/internal/stochastic"

// CommClasses groups the ordered processor pairs of a platform by
// their communication parameters: two off-diagonal pairs share a class
// exactly when their Lat and Tau entries agree, so any per-edge
// communication cost needs one evaluation per (class, edge) instead of
// one per (pair, edge). The diagonal is class -1: co-located tasks
// communicate for free. On the uniform networks of the paper's
// evaluation every off-diagonal pair collapses into a single class, so
// a full placement-dependent communication table costs O(e) instead of
// O(e·m²).
type CommClasses struct {
	M     int
	Class []int32   // m×m row-major: pair (i,j) → class id, -1 on the diagonal
	Lat   []float64 // per-class latency
	Tau   []float64 // per-class per-element transfer time
}

// CommClasses dedupes the platform's processor pairs.
func (p *Platform) CommClasses() CommClasses {
	cc := CommClasses{M: p.M, Class: make([]int32, p.M*p.M)}
	type key struct{ lat, tau float64 }
	seen := make(map[key]int32, p.M)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.M; j++ {
			if i == j {
				cc.Class[i*p.M+j] = -1
				continue
			}
			k := key{p.Lat[i][j], p.Tau[i][j]}
			id, ok := seen[k]
			if !ok {
				id = int32(len(cc.Lat))
				seen[k] = id
				cc.Lat = append(cc.Lat, k.lat)
				cc.Tau = append(cc.Tau, k.tau)
			}
			cc.Class[i*p.M+j] = id
		}
	}
	return cc
}

// BatchCommCosts evaluates eval over the communication-time
// distribution of every (class, volume) combination: out[c][k] applies
// eval to the scenario's duration distribution over the minimum time
// Lat[c] + vols[k]·Tau[c] at the global UL — the distribution CommDist
// builds for any processor pair of class c, constructed once instead
// of inside every scheduling inner loop. eval picks the statistic: the
// mean for the classic heuristics, mean + λσ for SDHEFT.
func (s *Scenario) BatchCommCosts(cc CommClasses, vols []float64, eval func(stochastic.Dist) float64) [][]float64 {
	out := make([][]float64, len(cc.Lat))
	for c := range out {
		lat, tau := cc.Lat[c], cc.Tau[c]
		row := make([]float64, len(vols))
		for k, v := range vols {
			row[k] = eval(s.durDist(lat+v*tau, s.UL))
		}
		out[c] = row
	}
	return out
}
