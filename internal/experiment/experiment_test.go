package experiment

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// testConfig keeps unit tests fast.
func testConfig() Config {
	c := DefaultConfig()
	c.Schedules = 40
	c.MCRealizations = 4000
	return c
}

// shortConfig shrinks a test's config further under -short: fewer
// schedules and Monte-Carlo realizations. Statistical assertions in
// short mode should use the generous thresholds that hold at these
// sample counts; the full run keeps paper-faithful scales.
func shortConfig(c Config) Config {
	if testing.Short() {
		c.Schedules = 15
		c.MCRealizations = 1500
	}
	return c
}

func TestCaseSpecBuildScenario(t *testing.T) {
	for _, spec := range []CaseSpec{
		{Name: "r", Family: RandomFamily, N: 20, M: 4, UL: 1.1, Seed: 1},
		{Name: "c", Family: CholeskyFamily, N: 10, M: 3, UL: 1.01, Seed: 2},
		{Name: "g", Family: GaussElimFamily, N: 30, M: 8, UL: 1.1, Seed: 3},
		{Name: "j", Family: JoinFamily, N: 9, M: 4, UL: 1.5, Seed: 4},
	} {
		scen, err := spec.BuildScenario()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if scen.G.N() == 0 {
			t.Errorf("%s: empty graph", spec.Name)
		}
		if err := scen.P.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if _, err := (CaseSpec{Family: "no-such-family", N: 5, M: 2, UL: 1.1}).BuildScenario(); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestCaseSizesMatchPaper(t *testing.T) {
	// Fig. 3: Cholesky of exactly 10 tasks.
	scen, err := Fig3Case(1).BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	if scen.G.N() != 10 {
		t.Errorf("Fig3 graph has %d tasks, want 10", scen.G.N())
	}
	// Fig. 5: GE of ~103 tasks (our generator gives 104).
	scen, err = Fig5Case(1).BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	if scen.G.N() != 104 {
		t.Errorf("Fig5 graph has %d tasks, want 104", scen.G.N())
	}
	if scen.P.M != 16 {
		t.Errorf("Fig5 platform has %d procs, want 16", scen.P.M)
	}
}

func TestCholeskyAndGESizeSelection(t *testing.T) {
	if tiles, _, err := choleskyRound(10); err != nil || tiles != 3 {
		t.Errorf("choleskyRound(10) = (%d, %v), want tiles 3", tiles, err)
	}
	if _, got, err := choleskyRound(100); err != nil || got < 60 || got > 140 {
		t.Errorf("cholesky ~100 gave %d tasks (err %v)", got, err)
	}
	if size, _, err := gaussElimRound(103); err != nil || size != 14 {
		t.Errorf("gaussElimRound(103) = (%d, %v), want size 14", size, err)
	}
}

func TestRunCaseSmall(t *testing.T) {
	cfg := testConfig()
	res, err := RunCase(Fig3Case(cfg.Seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != cfg.Schedules {
		t.Fatalf("got %d metric vectors, want %d", len(res.Metrics), cfg.Schedules)
	}
	if len(res.Heuristics) != 3 {
		t.Fatalf("got %d heuristics, want 3", len(res.Heuristics))
	}
	if len(res.Corr) != robustness.NumMetrics {
		t.Fatalf("correlation matrix size %d", len(res.Corr))
	}
	// Core paper claim: σ_M, entropy, lateness and (inverted) A are
	// strongly positively correlated.
	pairs := [][2]int{{1, 2}, {1, 5}, {1, 6}, {2, 5}, {5, 6}}
	for _, p := range pairs {
		r := res.Corr[p[0]][p[1]]
		if math.IsNaN(r) || r < 0.8 {
			t.Errorf("corr(%s, %s) = %.3f, want > 0.8",
				metricShortNames[p[0]], metricShortNames[p[1]], r)
		}
	}
	// Makespan and inverted slack are negatively correlated (conflicting
	// objectives).
	if r := res.Corr[0][3]; !math.IsNaN(r) && r > 0 {
		t.Errorf("corr(makespan, inv slack) = %.3f, want negative", r)
	}
	// §VII: (1-R)/M tracks σ_M almost perfectly.
	if res.RelByMakespanVsStd < 0.95 {
		t.Errorf("(1-R)/M vs σ_M = %.3f, want > 0.95", res.RelByMakespanVsStd)
	}
}

func TestRunCaseHeuristicsDominateRandom(t *testing.T) {
	cfg := shortConfig(testConfig())
	res, err := RunCase(Fig4Case(cfg.Seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestRandomMakespan()
	for _, h := range res.Heuristics {
		if h.Metrics.Makespan > best {
			t.Errorf("%s makespan %.4g worse than best random %.4g", h.Name, h.Metrics.Makespan, best)
		}
	}
}

func TestInvertedColumns(t *testing.T) {
	ms := []robustness.Metrics{
		{Makespan: 10, AvgSlack: 3, AbsProb: 0.8, RelProb: 0.6},
		{Makespan: 20, AvgSlack: 7, AbsProb: 0.2, RelProb: 0.4},
	}
	cols := InvertedColumns(ms)
	if cols[0][0] != 10 || cols[0][1] != 20 {
		t.Error("makespan column should be raw")
	}
	if cols[3][0] != 4 || cols[3][1] != 0 {
		t.Errorf("slack column = %v, want [4 0]", cols[3])
	}
	if math.Abs(cols[6][0]-0.2) > 1e-12 || math.Abs(cols[6][1]-0.8) > 1e-12 {
		t.Errorf("absprob column = %v, want [0.2 0.8]", cols[6])
	}
	if math.Abs(cols[7][0]-0.4) > 1e-12 || math.Abs(cols[7][1]-0.6) > 1e-12 {
		t.Errorf("relprob column = %v, want [0.4 0.6]", cols[7])
	}
}

func TestFig1ShowsGrowingImprecision(t *testing.T) {
	cfg := shortConfig(testConfig())
	sizes, perSize := []int{10, 60}, 2
	if testing.Short() {
		sizes, perSize = []int{10, 30}, 1
	}
	rows, err := Fig1(cfg, sizes, perSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.KS < 0 || r.KS > 1 {
			t.Errorf("KS = %g out of range", r.KS)
		}
		if r.CM < 0 {
			t.Errorf("CM = %g negative", r.CM)
		}
	}
	// The paper's point: precision degrades with graph size.
	if rows[1].KS <= rows[0].KS {
		t.Logf("note: KS did not grow (%.3g -> %.3g) — acceptable at small sample counts", rows[0].KS, rows[1].KS)
	}
}

func TestFig2ProducesComparableDensities(t *testing.T) {
	cfg := testConfig()
	res, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != len(res.Calculated) || len(res.X) != len(res.Empirical) {
		t.Fatal("series length mismatch")
	}
	// Both densities integrate to ~1 over the grid.
	h := res.X[1] - res.X[0]
	var mc, me float64
	for i := range res.X {
		mc += res.Calculated[i] * h
		me += res.Empirical[i] * h
	}
	if mc < 0.8 || mc > 1.2 {
		t.Errorf("calculated mass = %g", mc)
	}
	if me < 0.8 || me > 1.2 {
		t.Errorf("empirical mass = %g", me)
	}
	if res.KS <= 0 || res.KS > 0.8 {
		t.Errorf("KS = %g implausible", res.KS)
	}
}

func TestFig7Shapes(t *testing.T) {
	res := Fig7(128)
	if len(res.X) != 128 {
		t.Fatal("wrong point count")
	}
	// Same mean/std by construction; densities differ strongly.
	var maxDiff float64
	for i := range res.X {
		if d := math.Abs(res.Special[i] - res.Normal[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 0.01 {
		t.Errorf("special too close to normal (max diff %g)", maxDiff)
	}
}

func TestFig8Converges(t *testing.T) {
	cfg := testConfig()
	rows := Fig8(cfg, 10)
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	// Paper: after ~5 sums nearly Gaussian, after 10 negligible.
	if rows[0].KS < rows[5].KS || rows[5].KS < rows[10].KS {
		// Allow tiny non-monotonicity but the ends must order.
		if rows[10].KS >= rows[0].KS {
			t.Errorf("KS did not shrink: %g -> %g -> %g", rows[0].KS, rows[5].KS, rows[10].KS)
		}
	}
	if rows[10].KS > 0.02 {
		t.Errorf("after 10 sums KS = %g, want < 0.02", rows[10].KS)
	}
}

func TestFig9SlackVersusRobustness(t *testing.T) {
	cfg := testConfig()
	rows, err := Fig9(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	wide := rows[0]
	chain := rows[1]
	imbal := rows[2]
	// The wide schedule (max of many i.i.d.) is the most robust.
	for _, r := range rows[1:] {
		if wide.StdDev >= r.StdDev {
			t.Errorf("wide σ=%g not smaller than %s σ=%g", wide.StdDev, r.Name, r.StdDev)
		}
	}
	// The imbalanced schedule has ample slack yet poor robustness.
	if imbal.Slack <= 0 {
		t.Error("imbalanced schedule should have positive slack")
	}
	if imbal.StdDev <= wide.StdDev {
		t.Error("imbalanced should be less robust than wide despite its slack")
	}
	// The chain has no slack.
	if chain.Slack > 1e-6 {
		t.Errorf("chain slack = %g, want 0", chain.Slack)
	}
	_ = byName
}

func TestReportsRender(t *testing.T) {
	cfg := testConfig()
	res, err := RunCase(Fig3Case(cfg.Seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteCase(&b, res)
	out := b.String()
	for _, want := range []string{"Pearson", "BIL", "HEFT", "HBMCT", "makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("case report missing %q", want)
		}
	}
	if s := SummarizeHeuristics(res); !strings.Contains(s, "sigma_M") {
		t.Errorf("heuristics summary malformed: %s", s)
	}

	b.Reset()
	WriteFig1(&b, []Fig1Row{{N: 10, KS: 0.01, CM: 0.1}})
	if !strings.Contains(b.String(), "Fig. 1") {
		t.Error("fig1 report malformed")
	}
	b.Reset()
	WriteFig7(&b, Fig7(16))
	if !strings.Contains(b.String(), "special") {
		t.Error("fig7 report malformed")
	}
	b.Reset()
	WriteFig8(&b, Fig8(cfg, 2))
	if !strings.Contains(b.String(), "sums") {
		t.Error("fig8 report malformed")
	}
	rows, err := Fig9(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	WriteFig9(&b, rows)
	if !strings.Contains(b.String(), "slack") {
		t.Error("fig9 report malformed")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := DefaultConfig()
	if c.workers() < 1 {
		t.Error("workers must be positive")
	}
	if c.schedulesFor(10) != c.Schedules {
		t.Error("small graphs get the full budget")
	}
	if c.schedulesFor(100) >= c.Schedules {
		t.Error("large graphs get a reduced budget")
	}
	p := PaperConfig()
	if p.Schedules != 10000 || p.MCRealizations != 100000 {
		t.Error("paper config wrong")
	}
	if BenchConfig().Schedules >= DefaultConfig().Schedules {
		t.Error("bench config should be smaller")
	}
}

func TestCaseCacheKeyCanonical(t *testing.T) {
	spec := CaseSpec{Name: "k", Family: RandomFamily, N: 10, M: 3, UL: 1.1, Seed: 7}
	base := DefaultConfig()
	ref, err := CaseCacheKey(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.MCSampler = "exact"
	explicit.MCBlockSize = schedule.DefaultBlockSize
	key, err := CaseCacheKey(spec, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if key != ref {
		t.Error("spelling out the default sampler/block size must not change the cache key")
	}
	table := base
	table.MCSampler = "table"
	if key, err = CaseCacheKey(spec, table); err != nil {
		t.Fatal(err)
	} else if key == ref {
		t.Error("different sampler modes must get different cache keys")
	}
	bad := base
	bad.MCSampler = "Table"
	if _, err := CaseCacheKey(spec, bad); err == nil {
		t.Error("invalid sampler spelling must be an error, not a silent namespace")
	}
}

func TestInvalidSamplerRejectedByFigures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MCSampler = "typo"
	if _, err := Fig1(cfg, []int{6}, 1); err == nil {
		t.Error("Fig1 must reject an invalid sampler mode")
	}
	if _, err := Fig2(cfg); err == nil {
		t.Error("Fig2 must reject an invalid sampler mode")
	}
}

func TestWithDerivedSeed(t *testing.T) {
	spec := CaseSpec{Name: "x", Family: RandomFamily, N: 10, M: 3, UL: 1.1}
	a, b := spec.WithDerivedSeed(1), spec.WithDerivedSeed(1)
	if a.Seed == 0 || a.Seed != b.Seed {
		t.Errorf("derivation not deterministic: %d vs %d", a.Seed, b.Seed)
	}
	if spec.Seed != 0 {
		t.Error("receiver mutated")
	}
	if a.Seed == spec.WithDerivedSeed(2).Seed {
		t.Error("base seed ignored")
	}
	other := spec
	other.UL = 1.2
	if a.Seed == other.WithDerivedSeed(1).Seed {
		t.Error("spec identity ignored")
	}
}

func TestBuiltinFamilyNames(t *testing.T) {
	// The legacy GraphKind spellings must survive as family names:
	// JSON documents and cache semantics reference them.
	for _, name := range []string{"random", "cholesky", "gausselim", "join"} {
		if _, err := FamilyByName(name); err != nil {
			t.Errorf("legacy family %q not found: %v", name, err)
		}
	}
	want := []string{"cholesky", "fft", "gausselim", "intree", "join",
		"outtree", "random", "seriesparallel", "stg", "strassen"}
	if names := FamilyNames(); !slices.Equal(names, want) {
		t.Errorf("FamilyNames() = %v, want %v", names, want)
	}
}

func TestRunCaseSingleProcessor(t *testing.T) {
	// Degenerate platform: one processor. Slack is all zero, several
	// correlations are NaN; the runner must not crash.
	cfg := testConfig()
	cfg.Schedules = 15
	spec := CaseSpec{Name: "m1", Family: RandomFamily, N: 10, M: 1, UL: 1.1, Seed: 5}
	res, err := RunCase(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 15 {
		t.Fatalf("got %d metric vectors", len(res.Metrics))
	}
	for _, m := range res.Metrics {
		if math.Abs(m.AvgSlack) > 1e-6 {
			t.Errorf("single-proc slack = %g, want 0", m.AvgSlack)
		}
	}
}

// A deterministic (UL = 1, Dirac-duration) join-graph case produces
// constant metric columns — σ_M is 0 and both probabilistic metrics
// are 1 for every schedule — so the Pearson matrix must carry NaN for
// those pairs, and the Fig. 6 aggregation must skip (not propagate)
// them while keeping the defined cells.
func TestDiracJoinCaseConstantColumns(t *testing.T) {
	const n, m = 6, 3
	g := graphgen.Join(n+1, 0)
	etc := make([][]float64, n+1)
	for i := range etc {
		etc[i] = make([]float64, m)
		for j := range etc[i] {
			etc[i][j] = 10 + float64(i%3) + 2*float64(j)
		}
	}
	tau, lat := platform.NewUniformNetwork(m, 1, 0)
	scen := &platform.Scenario{
		G:  g,
		P:  &platform.Platform{M: m, ETC: etc, Tau: tau, Lat: lat},
		UL: 1, // every duration and arc is a Dirac
	}
	cfg := testConfig()
	rng := rand.New(rand.NewSource(3))
	scheds := heuristics.RandomSchedules(scen, 12, rng)
	cache := makespan.NewEvalCache(scen, 0)
	metrics := make([]robustness.Metrics, len(scheds))
	for i, s := range scheds {
		var err error
		metrics[i], err = evaluateOne(cache, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if metrics[i].StdDev != 0 {
			t.Fatalf("Dirac case has σ_M = %g, want 0", metrics[i].StdDev)
		}
	}
	corr, err := stats.CorrMatrix(InvertedColumns(metrics))
	if err != nil {
		t.Fatal(err)
	}
	// Column 1 is σ_M (constant 0): its off-diagonal entries are NaN.
	if !math.IsNaN(corr[1][0]) || !math.IsNaN(corr[0][1]) {
		t.Errorf("σ_M correlations = %g, want NaN", corr[1][0])
	}
	// Makespans differ across random schedules, so the E(M)/slack pair
	// stays defined.
	if math.IsNaN(corr[0][3]) {
		t.Error("makespan vs slack should be defined")
	}
	// Aggregating this degenerate matrix with itself must not poison
	// defined cells and must keep the undefined ones as NaN markers.
	mean, std, err := stats.AggregateMatrices([][][]float64{corr, corr})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(mean[1][0]) || !math.IsNaN(std[1][0]) {
		t.Error("all-NaN cell should stay NaN after aggregation")
	}
	if math.IsNaN(mean[0][3]) {
		t.Error("aggregation dropped a defined cell")
	}
	// The rendering paths must survive NaN cells.
	if out := stats.FormatMatrix(robustness.MetricNames, mean, std); !strings.Contains(out, "n/a") {
		t.Error("NaN cells should render as n/a")
	}
}
