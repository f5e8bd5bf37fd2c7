package platform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/graphgen"
	"repro/internal/stochastic"
)

// cvETC builds an n×m ETC by the coefficient-of-variation method of
// the random graphs: n task weights from a Gamma of mean 20 and CV 0.5,
// then each row from GenerateETCFromWeights at machine CV 0.5.
func cvETC(n, m int, rng *rand.Rand) [][]float64 {
	weights := make([]float64, n)
	taskDist := stochastic.GammaFromMeanCV(20, 0.5)
	for i := range weights {
		weights[i] = taskDist.Sample(rng)
	}
	return GenerateETCFromWeights(weights, m, 0.5, rng)
}

func testPlatform(n, m int, seed int64) *Platform {
	rng := rand.New(rand.NewSource(seed))
	tau, lat := NewUniformNetwork(m, 1, 0)
	return &Platform{
		M:   m,
		ETC: cvETC(n, m, rng),
		Tau: tau,
		Lat: lat,
	}
}

func TestValidate(t *testing.T) {
	p := testPlatform(10, 3, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Tau[1][1] = 5
	if err := p.Validate(); err == nil {
		t.Error("accepted non-zero tau diagonal")
	}
	p.Tau[1][1] = 0
	p.ETC[0][0] = -1
	if err := p.Validate(); err == nil {
		t.Error("accepted negative ETC")
	}
	bad := &Platform{M: 0}
	if err := bad.Validate(); err == nil {
		t.Error("accepted M=0")
	}
}

// TestValidateDeterministicFirstError pins the fix for the map-range
// bug reprovet's mapiter analyzer flagged: when both network matrices
// are invalid, Validate must always report tau first instead of
// letting map iteration order pick the winner.
func TestValidateDeterministicFirstError(t *testing.T) {
	for i := 0; i < 50; i++ {
		p := testPlatform(4, 3, 7)
		p.Tau[2][2] = 1 // bad tau diagonal
		p.Lat[1][1] = 1 // bad lat diagonal
		err := p.Validate()
		if err == nil {
			t.Fatal("accepted two broken diagonals")
		}
		const want = "platform: tau[2][2] = 1, diagonal must be 0"
		if err.Error() != want {
			t.Fatalf("run %d: error = %q, want %q (first error must not depend on iteration order)", i, err, want)
		}
	}
}

func TestMinCommTime(t *testing.T) {
	p := testPlatform(4, 3, 2)
	p.Lat[0][1] = 2
	p.Tau[0][1] = 0.5
	if got := p.MinCommTime(10, 0, 1); got != 7 {
		t.Errorf("comm time = %g, want 7", got)
	}
	if p.MinCommTime(10, 1, 1) != 0 {
		t.Error("co-located comm must be free")
	}
}

func TestAverages(t *testing.T) {
	p := &Platform{
		M:   2,
		ETC: [][]float64{{2, 4}, {6, 8}},
		Tau: [][]float64{{0, 3}, {5, 0}},
		Lat: [][]float64{{0, 1}, {1, 0}},
	}
	if got := p.AvgTau(); got != 4 {
		t.Errorf("AvgTau = %g, want 4", got)
	}
	if got := p.AvgLat(); got != 1 {
		t.Errorf("AvgLat = %g, want 1", got)
	}
	single := &Platform{M: 1, Tau: [][]float64{{0}}, Lat: [][]float64{{0}}}
	if single.AvgTau() != 0 || single.AvgLat() != 0 {
		t.Error("single-machine averages must be 0")
	}
}

func TestGenerateETCStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 3000, 4
	etc := cvETC(n, m, rng)
	var all []float64
	for i := 0; i < n; i++ {
		if len(etc[i]) != m {
			t.Fatalf("row %d has %d cols", i, len(etc[i]))
		}
		for _, v := range etc[i] {
			if v <= 0 {
				t.Fatalf("non-positive ETC %g", v)
			}
			all = append(all, v)
		}
	}
	var sum float64
	for _, v := range all {
		sum += v
	}
	mean := sum / float64(len(all))
	if mean < 18 || mean > 22 {
		t.Errorf("ETC grand mean = %g, want ~20", mean)
	}
	// The CV method gives overall CV ≈ sqrt(Vt² + Vm² + Vt²Vm²) ≈ 0.75.
	var ss float64
	for _, v := range all {
		d := v - mean
		ss += d * d
	}
	cv := math.Sqrt(ss/float64(len(all))) / mean
	if cv < 0.6 || cv > 0.9 {
		t.Errorf("ETC CV = %g, want ~0.75", cv)
	}
}

func TestGenerateETCUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	etc := GenerateETCUniform(500, 3, 10, 20, rng)
	for i, row := range etc {
		lo := math.Inf(1)
		for _, v := range row {
			if v < lo {
				lo = v
			}
		}
		for _, v := range row {
			// Every value must lie in [minVal, 2·minVal] for SOME minVal in
			// [10,20]; at minimum, all values within [10, 40] and within 2x
			// of the row minimum.
			if v < 10 || v > 40 {
				t.Fatalf("row %d value %g outside [10,40]", i, v)
			}
			if v > 2*lo+1e-9 {
				t.Fatalf("row %d value %g exceeds 2×row-min %g", i, v, lo)
			}
		}
	}
}

func TestGenerateETCFromWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weights := []float64{10, 100}
	etc := GenerateETCFromWeights(weights, 200, 0.3, rng)
	m0 := 0.0
	m1 := 0.0
	for _, v := range etc[0] {
		m0 += v
	}
	for _, v := range etc[1] {
		m1 += v
	}
	m0 /= 200
	m1 /= 200
	if math.Abs(m0-10) > 1.5 {
		t.Errorf("row 0 mean = %g, want ~10", m0)
	}
	if math.Abs(m1-100) > 15 {
		t.Errorf("row 1 mean = %g, want ~100", m1)
	}
}

func TestMeanFromMin(t *testing.T) {
	if MeanFromMin(10, 1) != 10 {
		t.Error("UL=1 must be deterministic")
	}
	// UL=1.1: mean = 10·(1 + 0.1·2/7).
	want := 10 * (1 + 0.1*2.0/7.0)
	if got := MeanFromMin(10, 1.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanFromMin = %g, want %g", got, want)
	}
}

func TestScenarioDists(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graphgen.Chain(3, 5)
	tau, lat := NewUniformNetwork(2, 1, 0)
	p := &Platform{M: 2, ETC: GenerateETCUniform(3, 2, 10, 20, rng), Tau: tau, Lat: lat}
	s := &Scenario{G: g, P: p, UL: 1.1}

	d := s.TaskDist(0, 1)
	b, ok := d.(stochastic.Beta)
	if !ok {
		t.Fatalf("task dist is %T, want Beta", d)
	}
	if b.Lo != p.ETC[0][1] || math.Abs(b.Hi-1.1*p.ETC[0][1]) > 1e-9 {
		t.Errorf("task dist support [%g,%g], want [%g,%g]", b.Lo, b.Hi, p.ETC[0][1], 1.1*p.ETC[0][1])
	}

	// Co-located communication is free.
	cd := s.CommDist(0, 1, 1, 1)
	if dd, ok := cd.(stochastic.Dirac); !ok || dd.Value != 0 {
		t.Errorf("co-located comm = %#v, want Dirac(0)", cd)
	}
	// Cross-processor communication: Beta over [5, 5.5] (vol 5 × τ 1).
	cd = s.CommDist(0, 1, 0, 1)
	cb, ok := cd.(stochastic.Beta)
	if !ok {
		t.Fatalf("comm dist is %T, want Beta", cd)
	}
	if cb.Lo != 5 || math.Abs(cb.Hi-5.5) > 1e-9 {
		t.Errorf("comm support [%g,%g], want [5,5.5]", cb.Lo, cb.Hi)
	}

	// Deterministic scenario degrades to Dirac.
	sDet := &Scenario{G: g, P: p, UL: 1}
	if _, ok := sDet.TaskDist(0, 0).(stochastic.Dirac); !ok {
		t.Error("UL=1 task dist should be Dirac")
	}

	// Samples stay within the Beta support.
	for i := 0; i < 1000; i++ {
		v := s.TaskDist(0, 1).Sample(rng)
		if v < b.Lo || v > b.Hi {
			t.Fatalf("sample %g outside [%g,%g]", v, b.Lo, b.Hi)
		}
	}
	if s.CommDist(0, 1, 1, 1).Sample(rng) != 0 {
		t.Error("co-located comm sample must be 0")
	}
	if s.CommDist(0, 1, 0, 1).Mean() <= 5 {
		t.Error("cross-proc mean comm should exceed the minimum")
	}
	if s.TaskDist(0, 0).Mean() <= p.ETC[0][0] {
		t.Error("mean task duration should exceed the minimum under UL>1")
	}
}

// Every uncertainty level must lie in [1, +Inf): the global UL, each
// per-task and per-processor override, and the bounds handed to the
// scenario builders of §VIII. A non-nil TaskUL or ProcUL must hold one
// level per task or per processor.
func TestUncertaintyLevelsChecked(t *testing.T) {
	g := graphgen.Chain(3, 5)
	tau, lat := NewUniformNetwork(2, 1, 0)
	p := &Platform{M: 2, ETC: [][]float64{{10, 12}, {11, 13}, {9, 14}}, Tau: tau, Lat: lat}
	base := &Scenario{G: g, P: p, UL: 1.1}
	rng := rand.New(rand.NewSource(1))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5} {
		global := *base
		global.UL = bad
		perTask := *base
		perTask.TaskUL = []float64{1.2, bad, 1.3}
		perProc := *base
		perProc.ProcUL = []float64{bad, 1.5}
		for name, s := range map[string]*Scenario{"UL": &global, "TaskUL": &perTask, "ProcUL": &perProc} {
			if err := s.CheckLevels(); err == nil {
				t.Errorf("%s = %v: CheckLevels accepted it", name, bad)
			}
		}
		if _, err := base.WithVariableUL(bad, 2, rng); err == nil {
			t.Errorf("WithVariableUL(%v, 2) accepted", bad)
		}
		if _, err := base.WithVariableUL(1, bad, rng); err == nil {
			t.Errorf("WithVariableUL(1, %v) accepted", bad)
		}
		if _, err := base.WithNoisyProcessors(bad, 2); err == nil {
			t.Errorf("WithNoisyProcessors(%v, 2) accepted", bad)
		}
		if _, err := base.WithNoisyProcessors(1.02, bad); err == nil {
			t.Errorf("WithNoisyProcessors(1.02, %v) accepted", bad)
		}
	}
	if _, err := base.WithVariableUL(1.5, 1.2, rng); err == nil {
		t.Error("WithVariableUL(1.5, 1.2): lower bound above upper accepted")
	}
	for _, s := range []*Scenario{
		{G: g, P: p, UL: 1.1, TaskUL: []float64{1.2, 1.3}},
		{G: g, P: p, UL: 1.1, TaskUL: []float64{}},
		{G: g, P: p, UL: 1.1, ProcUL: []float64{1.2}},
		{G: g, P: p, UL: 1.1, ProcUL: []float64{1.2, 1.3, 1.4}},
	} {
		if err := s.CheckLevels(); err == nil {
			t.Errorf("TaskUL %#v, ProcUL %#v on 3 tasks and 2 processors: CheckLevels accepted the lengths", s.TaskUL, s.ProcUL)
		}
	}

	for _, s := range []*Scenario{base, {G: g, P: p, UL: 1, TaskUL: []float64{1, 2, 1e300}, ProcUL: []float64{1, 1.5}}} {
		if err := s.CheckLevels(); err != nil {
			t.Errorf("valid levels rejected: %v", err)
		}
	}
	v, err := base.WithVariableUL(1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckLevels(); err != nil {
		t.Errorf("WithVariableUL(1, 1): %v", err)
	}
	n, err := base.WithNoisyProcessors(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckLevels(); err != nil {
		t.Errorf("WithNoisyProcessors(1, 2): %v", err)
	}
}

// The default family (no DurFn): Dirac at UL 1 or a zero minimum,
// Beta(2,5) over [min, min·ul] otherwise.
func TestScenarioDurDist(t *testing.T) {
	s := &Scenario{}
	if _, ok := s.DurDist(10, 1.0).(stochastic.Dirac); !ok {
		t.Error("UL=1 should give Dirac")
	}
	if _, ok := s.DurDist(0, 1.5).(stochastic.Dirac); !ok {
		t.Error("zero minimum should give Dirac")
	}
	if got, want := s.DurDist(10, 1.1), stochastic.NewBetaUL(10, 1.1); got != want {
		t.Errorf("UL>1 gives %#v, want %#v", got, want)
	}
}

// A custom (additive) duration family must be consulted for zero-minimum
// cross-processor links — the zero-latency regime — while co-located
// communication stays exactly free regardless of the family. This is
// the scenario-layer half of the dropped zero-min-arc fix: before it,
// durDist short-circuited min <= 0 to Dirac(0) even under a DurFn, so
// no scenario could express a stochastic zero-min link at all.
func TestZeroMinCommUnderCustomDurFn(t *testing.T) {
	g := dag.New(3)
	if err := g.AddEdge(0, 2, 0); err != nil { // zero-volume edge
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	etc := [][]float64{{10, 10}, {10, 10}, {10, 10}}
	tau, lat := NewUniformNetwork(2, 1, 0) // zero-latency network
	s := &Scenario{
		G:  g,
		P:  &Platform{M: 2, ETC: etc, Tau: tau, Lat: lat},
		UL: 1.5,
		// Additive noise family: min plus up to one time unit.
		DurFn: func(min, ul float64) stochastic.Dist {
			return stochastic.Uniform{Lo: min, Hi: min + (ul - 1)}
		},
	}

	// Cross-processor zero-min link: DurFn applies, mean is positive.
	cd := s.CommDist(0, 2, 0, 1)
	u, ok := cd.(stochastic.Uniform)
	if !ok {
		t.Fatalf("zero-min cross-proc comm is %T, want the DurFn's Uniform", cd)
	}
	if u.Lo != 0 || u.Hi != 0.5 {
		t.Errorf("zero-min comm support [%g,%g], want [0,0.5]", u.Lo, u.Hi)
	}
	if m := s.CommDist(0, 2, 0, 1).Mean(); m <= 0 {
		t.Errorf("zero-min cross-proc mean comm = %g, want > 0", m)
	}

	// Co-located communication is free even under the additive family.
	cd = s.CommDist(0, 2, 1, 1)
	if dd, ok := cd.(stochastic.Dirac); !ok || dd.Value != 0 {
		t.Errorf("co-located comm = %#v, want Dirac(0) despite DurFn", cd)
	}

	// The deterministic case still degrades everything to Dirac.
	det := *s
	det.UL = 1
	if dd, ok := det.CommDist(0, 2, 0, 1).(stochastic.Dirac); !ok || dd.Value != 0 {
		t.Error("UL=1 zero-min comm should stay Dirac(0)")
	}
}

// fuzzValues is the alphabet FuzzPlatformValidate draws matrix entries
// from, one byte per entry: ordinary values, the signed zeros and
// extremes, and the non-finite values.
var fuzzValues = []float64{0, 1, 2.5, -1, math.Copysign(0, -1), math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}

// Validate guards platforms that users build: over arbitrary shapes
// and entries it must not panic, and a platform it accepts has M-wide
// ETC rows, M×M τ and latency matrices with zero diagonals, and only
// finite, non-negative entries. shape[k], when present, overrides the
// row count of the k-th matrix (ETC, τ, latency) and the following
// bytes override row widths in order; vals indexes fuzzValues for each
// entry, row by row, and missing entries are 0.
func FuzzPlatformValidate(f *testing.F) {
	// M = 2, one task; each matrix well formed, with a NaN ETC entry, a
	// +Inf τ entry and a NaN latency entry in turn.
	f.Add(int8(2), []byte{1}, []byte{1, 6, 0, 1, 1, 0, 0, 2, 2, 0})
	f.Add(int8(2), []byte{1}, []byte{1, 2, 0, 7, 1, 0, 0, 2, 2, 0})
	f.Add(int8(2), []byte{1}, []byte{1, 2, 0, 1, 1, 0, 0, 6, 2, 0})
	// M = 3, two tasks, with the first τ row one entry short.
	f.Add(int8(3), []byte{2, 3, 3, 3, 3, 2}, []byte{})
	f.Fuzz(func(t *testing.T, m int8, shape, vals []byte) {
		p := &Platform{M: int(m) % 5}
		next := func(b []byte, k int) (int, bool) {
			if k < len(b) {
				return int(b[k]), true
			}
			return 0, false
		}
		widthAt, entryAt := 3, 0
		matrix := func(k int) [][]float64 {
			rows := max(p.M, 0)
			if v, ok := next(shape, k); ok {
				rows = v % 5
			}
			mat := make([][]float64, rows)
			for i := range mat {
				width := max(p.M, 0)
				if v, ok := next(shape, widthAt); ok {
					width = v % 5
				}
				widthAt++
				mat[i] = make([]float64, width)
				for j := range mat[i] {
					if v, ok := next(vals, entryAt); ok {
						mat[i][j] = fuzzValues[v%len(fuzzValues)]
					}
					entryAt++
				}
			}
			return mat
		}
		p.ETC, p.Tau, p.Lat = matrix(0), matrix(1), matrix(2)
		if p.Validate() != nil {
			return
		}
		for k, mat := range [][][]float64{p.ETC, p.Tau, p.Lat} {
			if k > 0 && len(mat) != p.M {
				t.Fatalf("accepted matrix %d with %d rows, M = %d", k, len(mat), p.M)
			}
			for i, row := range mat {
				if len(row) != p.M {
					t.Fatalf("accepted matrix %d row %d of width %d, M = %d", k, i, len(row), p.M)
				}
				if k > 0 && row[i] != 0 {
					t.Fatalf("accepted matrix %d diagonal entry %g", k, row[i])
				}
				for _, v := range row {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted matrix %d entry %g", k, v)
					}
				}
			}
		}
	})
}
