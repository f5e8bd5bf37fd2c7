package experiment

import "fmt"

// Sweep describes a generalized case grid: every registered workload
// family crossed with requested sizes, uncertainty levels and repeated
// instances. Fig6Cases is one fixed instance of it; cmd/experiments
// exposes it directly through the -families/-sweep-* flags.
type Sweep struct {
	// NamePrefix prefixes every case name; empty means "sweep".
	NamePrefix string
	// Families are registered workload family names (FamilyNames lists
	// them). Every family must exist and achieve every requested size.
	Families []string
	// Sizes are the requested task counts (families round them to
	// their size grids; unachievable sizes fail Cases up front).
	Sizes []int
	// ULs are the uncertainty levels of the grid.
	ULs []float64
	// Reps is the number of instances per (family, size, UL) cell;
	// <= 0 means 1. Each instance gets its own derived seed.
	Reps int
	// RepsFor overrides Reps per family name (Fig. 6 runs two random
	// instances per cell but one of each structured graph).
	RepsFor map[string]int
}

// DefaultSweepProcs is the paper's platform scaling: 3 processors for
// ~10-task graphs, 8 for ~30, 16 for ~100 and larger.
func DefaultSweepProcs(n int) int {
	switch {
	case n < 20:
		return 3
	case n < 60:
		return 8
	default:
		return 16
	}
}

// Cases expands the grid into concrete case specs in deterministic
// order (sizes, then ULs, then families as listed, then reps). Every
// family is resolved through the registry and every (family, size)
// pair is validated up front, so an unachievable size fails the whole
// sweep with a *SizeError before any compute is spent. Case identity
// (name and seed) derives from the position in the expansion order,
// so appending Sizes — the outermost dimension — leaves every
// existing case's name and seed (and therefore its cache entry)
// intact; changing Families, ULs or reps renumbers the cells after
// the first affected one.
func (s Sweep) Cases(seed int64) ([]CaseSpec, error) {
	if len(s.Families) == 0 {
		return nil, fmt.Errorf("experiment: sweep has no families (registered: %v)", FamilyNames())
	}
	if len(s.Sizes) == 0 {
		return nil, fmt.Errorf("experiment: sweep has no sizes")
	}
	if len(s.ULs) == 0 {
		return nil, fmt.Errorf("experiment: sweep has no uncertainty levels")
	}
	for _, name := range s.Families {
		fam, err := FamilyByName(name)
		if err != nil {
			return nil, err
		}
		for _, n := range s.Sizes {
			if _, err := fam.RoundSize(n); err != nil {
				return nil, err
			}
		}
	}
	prefix := s.NamePrefix
	if prefix == "" {
		prefix = "sweep"
	}
	reps := func(family string) int {
		if r, ok := s.RepsFor[family]; ok && r > 0 {
			return r
		}
		if s.Reps > 0 {
			return s.Reps
		}
		return 1
	}
	var cases []CaseSpec
	id := 0
	for _, n := range s.Sizes {
		m := DefaultSweepProcs(n)
		for _, ul := range s.ULs {
			for _, family := range s.Families {
				for rep := 0; rep < reps(family); rep++ {
					id++
					cases = append(cases, CaseSpec{
						Name:   fmt.Sprintf("%s-%02d-%s-n%d-ul%g-r%d", prefix, id, family, n, ul, rep),
						Family: family, N: n, M: m, UL: ul,
						Seed: seed + int64(id)*1000,
					})
				}
			}
		}
	}
	return cases, nil
}
