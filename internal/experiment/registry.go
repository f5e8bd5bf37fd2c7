package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/graphgen"
)

// GraphFamily is one workload family: a stable string name (the
// identity hashed into disk-cache keys and written into JSON
// documents), a size-rounding function mapping requested task counts
// onto the family's achievable size grid, and a generator.
//
// The families form one fixed table, sorted by name: the paper's
// random, Cholesky and Gaussian-elimination graphs and its elementary
// join, plus six shapes from the scheduling literature. Cache keys and JSON
// documents reference families only by name, so the table's order can
// never alias results across families.
type GraphFamily struct {
	// Name is the stable identifier. It must be non-empty and unique;
	// it appears in case names, JSON documents, CLI flags and cache
	// keys, so renaming a family invalidates its cached results.
	Name string
	// RoundSize returns the achievable task count closest to the
	// requested n. When the closest achievable count is off by more
	// than a factor of two it returns a *SizeError — never a silently
	// clamped size.
	RoundSize func(n int) (int, error)
	// Generate builds the graph with exactly n tasks plus optional
	// per-task mean computation weights. BuildScenario always passes
	// the RoundSize result, so Generate can assume n is achievable —
	// it never needs to round (or clamp) itself. Families returning
	// nil weights get the uniform [10, 20] ETC treatment of the
	// paper's structured graphs; families returning weights go through
	// platform.GenerateETCFromWeights with Vmach = 0.5.
	Generate func(n int, rng *rand.Rand) (*dag.Graph, []float64, error)
}

// SizeError reports a workload size request that the family's size
// grid cannot approximate within a factor of two. It replaces the old
// behavior of silently clamping large requests (a Cholesky case asking
// for 50 000 tasks used to get a ~10 660-task graph with no error).
type SizeError struct {
	Family    string
	Requested int
	Closest   int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("experiment: family %q cannot build a graph of ~%d tasks (closest achievable size is %d, off by more than 2x)",
		e.Family, e.Requested, e.Closest)
}

// Stable names of the built-in workload families.
const (
	RandomFamily         = "random"
	CholeskyFamily       = "cholesky"
	GaussElimFamily      = "gausselim"
	JoinFamily           = "join"
	InTreeFamily         = "intree"
	OutTreeFamily        = "outtree"
	SeriesParallelFamily = "seriesparallel"
	FFTFamily            = "fft"
	StrassenFamily       = "strassen"
	STGFamily            = "stg"
)

// FamilyByName looks a family up by its stable name.
func FamilyByName(name string) (GraphFamily, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return GraphFamily{}, fmt.Errorf("experiment: unknown workload family %q (registered: %v)", name, FamilyNames())
}

// FamilyNames returns the family names, sorted.
func FamilyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	return names
}

// exactSize is the RoundSize of families that achieve every task count
// from min upward: the identity above min, the smallest achievable
// size below it (still subject to the factor-two window).
func exactSize(family string, min int) func(int) (int, error) {
	return func(n int) (int, error) {
		if n >= min {
			return n, nil
		}
		if min > 2*n {
			return 0, &SizeError{Family: family, Requested: n, Closest: min}
		}
		return min, nil
	}
}

// gridRound finds the achievable count closest to n on a sparse size
// grid count(k), k = kMin, kMin+1, ... with count strictly increasing.
// It searches the grid without any arbitrary parameter cap — the old
// fixed caps are what silently clamped large requests — and returns a
// *SizeError when even the closest count is off by more than a factor
// of two.
func gridRound(family string, n, kMin int, count func(int) int) (k, c int, err error) {
	if n < 1 {
		return 0, 0, &SizeError{Family: family, Requested: n, Closest: count(kMin)}
	}
	bestK, bestC := kMin, count(kMin)
	for k := kMin; ; k++ {
		c := count(k)
		if abs(c-n) < abs(bestC-n) {
			bestK, bestC = k, c
		}
		// The grid is increasing: once past 2n nothing closer follows.
		if c >= 2*n {
			break
		}
	}
	if bestC > 2*n || 2*bestC < n {
		return 0, 0, &SizeError{Family: family, Requested: n, Closest: bestC}
	}
	return bestK, bestC, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sizeOnly adapts a (param, count, error) rounding function to the
// RoundSize signature.
func sizeOnly(round func(int) (int, int, error)) func(int) (int, error) {
	return func(n int) (int, error) {
		_, c, err := round(n)
		return c, err
	}
}

// Built-in family parameter rounders, shared by RoundSize and Generate.
func choleskyRound(n int) (tiles, count int, err error) {
	return gridRound(CholeskyFamily, n, 1, graphgen.CholeskyTaskCount)
}

func gaussElimRound(n int) (size, count int, err error) {
	return gridRound(GaussElimFamily, n, 2, graphgen.GaussElimTaskCount)
}

func fftRound(n int) (points, count int, err error) {
	k, c, err := gridRound(FFTFamily, n, 1, func(k int) int { return graphgen.FFTTaskCount(1 << k) })
	return 1 << k, c, err
}

func strassenRound(n int) (levels, count int, err error) {
	return gridRound(StrassenFamily, n, 1, graphgen.StrassenTaskCount)
}

// treeArity is the branching factor of the built-in in/out-tree
// families.
const treeArity = 2

// families is the table of workload families, sorted by Name.
var families = []GraphFamily{
	{
		Name:      CholeskyFamily,
		RoundSize: sizeOnly(choleskyRound),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			tiles, _, err := choleskyRound(n)
			if err != nil {
				return nil, nil, err
			}
			return graphgen.Cholesky(tiles, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      FFTFamily,
		RoundSize: sizeOnly(fftRound),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			points, _, err := fftRound(n)
			if err != nil {
				return nil, nil, err
			}
			return graphgen.FFT(points, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      GaussElimFamily,
		RoundSize: sizeOnly(gaussElimRound),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			size, _, err := gaussElimRound(n)
			if err != nil {
				return nil, nil, err
			}
			return graphgen.GaussElim(size, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      InTreeFamily,
		RoundSize: exactSize(InTreeFamily, 1),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			return graphgen.InTree(n, treeArity, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      JoinFamily,
		RoundSize: exactSize(JoinFamily, 2),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			return graphgen.Join(n, 0), nil, nil
		},
	},
	{
		Name:      OutTreeFamily,
		RoundSize: exactSize(OutTreeFamily, 1),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			return graphgen.OutTree(n, treeArity, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      RandomFamily,
		RoundSize: exactSize(RandomFamily, 1),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			g, weights := graphgen.Random(n, rng)
			return g, weights, nil
		},
	},
	{
		Name:      SeriesParallelFamily,
		RoundSize: exactSize(SeriesParallelFamily, 2),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			return graphgen.SeriesParallel(n, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      STGFamily,
		RoundSize: exactSize(STGFamily, 3),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			return graphgen.STG(n, 10, 20, rng), nil, nil
		},
	},
	{
		Name:      StrassenFamily,
		RoundSize: sizeOnly(strassenRound),
		Generate: func(n int, rng *rand.Rand) (*dag.Graph, []float64, error) {
			levels, _, err := strassenRound(n)
			if err != nil {
				return nil, nil, err
			}
			return graphgen.Strassen(levels, 10, 20, rng), nil, nil
		},
	},
}
