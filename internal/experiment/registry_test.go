package experiment

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stochastic"
)

// Regression for the silent-clamp bug: choleskyTiles used to cap its
// search at 40 tiles (11 480 tasks) and gaussElimSize at size 80
// (3 239 tasks), so a case requesting 50 000 tasks silently got a
// ~10 660-task graph. The registry rounders search the whole grid.
func TestLargeSizeRequestsNoLongerClamp(t *testing.T) {
	tiles, count, err := choleskyRound(50000)
	if err != nil {
		t.Fatalf("choleskyRound(50000): %v", err)
	}
	if tiles != 66 || count != 50116 {
		t.Errorf("choleskyRound(50000) = (%d tiles, %d tasks), want (66, 50116)", tiles, count)
	}
	size, count, err := gaussElimRound(50000)
	if err != nil {
		t.Fatalf("gaussElimRound(50000): %v", err)
	}
	if size != 316 || count != 50085 {
		t.Errorf("gaussElimRound(50000) = (size %d, %d tasks), want (316, 50085)", size, count)
	}
}

// A size the family grid cannot approximate within a factor of two is
// a typed error, never a clamped graph.
func TestUnachievableSizeIsAnError(t *testing.T) {
	fam, err := FamilyByName(StrassenFamily)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 100, 5000} {
		_, err := fam.RoundSize(n)
		var se *SizeError
		if !errors.As(err, &se) {
			t.Fatalf("strassen RoundSize(%d) = %v, want *SizeError", n, err)
		}
		if se.Family != StrassenFamily || se.Requested != n {
			t.Errorf("SizeError fields = %+v", se)
		}
		// The whole stack surfaces it: scenario build...
		spec := CaseSpec{Name: "bad", Family: StrassenFamily, N: n, M: 3, UL: 1.1, Seed: 1}
		if _, err := spec.BuildScenario(); !errors.As(err, &se) {
			t.Errorf("BuildScenario(n=%d) = %v, want *SizeError", n, err)
		}
		// ...and the sweep grid, before any compute is spent.
		_, err = Sweep{Families: []string{StrassenFamily}, Sizes: []int{n}, ULs: []float64{1.1}}.Cases(1)
		if !errors.As(err, &se) {
			t.Errorf("Sweep.Cases(n=%d) = %v, want *SizeError", n, err)
		}
	}
	// Achievable strassen sizes round normally.
	if got, err := fam.RoundSize(25); err != nil || got != 25 {
		t.Errorf("strassen RoundSize(25) = (%d, %v), want exactly 25", got, err)
	}
	if got, err := fam.RoundSize(30); err != nil || got != 25 {
		t.Errorf("strassen RoundSize(30) = (%d, %v), want 25", got, err)
	}
}

// Regression for the JoinGraph contract: the family builds exactly N
// tasks — N−1 independent sources feeding one sink — matching
// graphgen.Join; Fig. 9 (n parallel tasks + sink) passes n+1.
func TestJoinFamilyTaskCount(t *testing.T) {
	for _, n := range []int{2, 5, 9, 33} {
		scen, err := CaseSpec{Name: "join", Family: JoinFamily, N: n, M: 3, UL: 1.2, Seed: 3}.BuildScenario()
		if err != nil {
			t.Fatal(err)
		}
		if scen.G.N() != n {
			t.Errorf("join family built %d tasks for N=%d, want exactly N", scen.G.N(), n)
		}
		if got := len(scen.G.Pred(scen.G.Sinks()[0])); got != n-1 {
			t.Errorf("join sink has %d predecessors for N=%d, want N-1", got, n)
		}
	}
	// The graphgen primitive agrees: Join(n) is n tasks total.
	if g := graphgen.Join(9, 0); g.N() != 9 || len(g.Sources()) != 8 {
		t.Errorf("graphgen.Join(9) = %d tasks, %d sources; want 9 and 8", g.N(), len(g.Sources()))
	}
}

// feasibleSizes maps every built-in family to a target size its grid
// achieves, for end-to-end runs.
var feasibleSizes = map[string]int{
	RandomFamily:         12,
	CholeskyFamily:       10,
	GaussElimFamily:      12,
	JoinFamily:           10,
	InTreeFamily:         12,
	OutTreeFamily:        12,
	SeriesParallelFamily: 12,
	FFTFamily:            12,
	StrassenFamily:       25,
	STGFamily:            12,
}

// Every family must run end to end through RunCases and
// produce a correlation matrix with finite, meaningful entries.
func TestEveryFamilyRunsEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Schedules = 12
	var specs []CaseSpec
	for _, name := range FamilyNames() {
		n, ok := feasibleSizes[name]
		if !ok {
			t.Fatalf("family %q has no entry in feasibleSizes", name)
		}
		specs = append(specs, CaseSpec{
			Name: "e2e-" + name, Family: name, N: n, M: 3, UL: 1.1,
		}.WithDerivedSeed(cfg.Seed))
	}
	results, err := RunCases(context.Background(), specs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Corr) != robustness.NumMetrics {
			t.Fatalf("%s: correlation matrix has %d rows", specs[i].Name, len(res.Corr))
		}
		finite := 0
		for _, row := range res.Corr {
			for _, v := range row {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					finite++
				}
			}
		}
		// Degenerate columns may be NaN, but a family whose whole
		// matrix is undefined never exercises the pipeline.
		if finite < robustness.NumMetrics {
			t.Errorf("%s: only %d finite correlation entries", specs[i].Name, finite)
		}
		if len(res.Metrics) != cfg.Schedules {
			t.Errorf("%s: %d metric vectors, want %d", specs[i].Name, len(res.Metrics), cfg.Schedules)
		}
	}
}

// legacySpecV2 reproduces the pre-registry CaseSpec layout: the graph
// family as an iota-valued int. Field names and order match the old
// struct, so runner.Key hashes exactly the bytes v2 produced.
type legacySpecV2 struct {
	Name string
	Kind int
	N    int
	M    int
	UL   float64
	Seed int64
}

// cacheCfgPart mirrors the config fields hashed into the case key (the
// same struct shape both versions use).
type cacheCfgPart struct {
	Schedules   int
	GridSize    int
	Delta       float64
	Gamma       float64
	MCSampler   string
	MCBlockSize int
}

// v2 keys hashed the iota int, so inserting or reordering a family
// silently aliased disk-cache entries across families. v3 keys hash
// the stable name and must never collide with any v2 key.
func TestCacheKeyV3NeverAliasesV2(t *testing.T) {
	cfg := DefaultConfig()
	part := cacheCfgPart{cfg.Schedules, stochastic.DefaultGridSize, cfg.Delta, cfg.Gamma, "exact", schedule.DefaultBlockSize}
	legacyNames := []string{"random", "cholesky", "gausselim", "join"}
	v2 := make(map[string]string)
	for kind, name := range legacyNames {
		key, err := runner.Key("repro/case/v2",
			legacySpecV2{Name: "k", Kind: kind, N: 10, M: 3, UL: 1.1, Seed: 7}, part)
		if err != nil {
			t.Fatal(err)
		}
		v2[key] = name
	}
	for _, name := range FamilyNames() {
		key, err := CaseCacheKey(CaseSpec{Name: "k", Family: name, N: 10, M: 3, UL: 1.1, Seed: 7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if old, clash := v2[key]; clash {
			t.Errorf("v3 key for family %q aliases the v2 key of %q", name, old)
		}
	}
}

// Cache keys depend only on the stable family name, never on the
// family's position in the table: distinct families must never share
// one.
func TestCacheKeyInvariantUnderRegistrationOrder(t *testing.T) {
	cfg := DefaultConfig()
	seen := make(map[string]string)
	for _, name := range FamilyNames() {
		key, err := CaseCacheKey(CaseSpec{Name: "k", Family: name, N: 10, M: 3, UL: 1.1, Seed: 7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prevFam, dup := seen[key]; dup {
			t.Fatalf("families %q and %q share a cache key", prevFam, name)
		}
		seen[key] = name
	}
}

// The grid builder reproduces Fig. 6 exactly: the sweep that subsumed
// the hand-rolled Fig6Cases must keep every name, seed and geometry.
func TestFig6CasesViaSweepGrid(t *testing.T) {
	cases := Fig6Cases(42)
	if len(cases) != 24 {
		t.Fatalf("Fig6Cases returned %d cases, want 24", len(cases))
	}
	// Spot-check identity against the historical enumeration.
	first := cases[0]
	if first.Name != "fig6-01-cholesky-n10-ul1.01-r0" || first.Seed != 42+1000 || first.M != 3 {
		t.Errorf("first case = %+v", first)
	}
	last := cases[23]
	if last.Name != "fig6-24-random-n100-ul1.1-r1" || last.Seed != 42+24000 || last.M != 16 {
		t.Errorf("last case = %+v", last)
	}
	for _, c := range cases {
		if _, err := FamilyByName(c.Family); err != nil {
			t.Errorf("case %s: %v", c.Name, err)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := (Sweep{Sizes: []int{10}, ULs: []float64{1.1}}).Cases(1); err == nil {
		t.Error("empty family list accepted")
	}
	if _, err := (Sweep{Families: []string{"nope"}, Sizes: []int{10}, ULs: []float64{1.1}}).Cases(1); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (Sweep{Families: []string{RandomFamily}, ULs: []float64{1.1}}).Cases(1); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := (Sweep{Families: []string{RandomFamily}, Sizes: []int{10}}).Cases(1); err == nil {
		t.Error("empty UL list accepted")
	}
	cases, err := (Sweep{
		Families: []string{InTreeFamily, FFTFamily},
		Sizes:    []int{10, 30},
		ULs:      []float64{1.05},
		Reps:     2,
	}).Cases(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 8 {
		t.Fatalf("grid expanded to %d cases, want 2×2×1×2 = 8", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("duplicate case name %s", c.Name)
		}
		seen[c.Name] = true
		if c.M != DefaultSweepProcs(c.N) {
			t.Errorf("case %s: M=%d, want %d", c.Name, c.M, DefaultSweepProcs(c.N))
		}
	}
}
