package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/stochastic"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %g, want -1", r)
	}
}

func TestPearsonInvariances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.5*xs[i] + rng.NormFloat64()
	}
	r := Pearson(xs, ys)
	// Affine transforms leave |r| unchanged.
	xs2 := make([]float64, len(xs))
	for i := range xs {
		xs2[i] = 3*xs[i] + 7
	}
	if r2 := Pearson(xs2, ys); !almostEqual(r, r2, 1e-12) {
		t.Errorf("affine x changed r: %g vs %g", r, r2)
	}
	ys2 := make([]float64, len(ys))
	for i := range ys {
		ys2[i] = -2 * ys[i]
	}
	if r2 := Pearson(xs, ys2); !almostEqual(r, -r2, 1e-12) {
		t.Errorf("negation should flip sign: %g vs %g", r, r2)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("single point should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant x should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{1, 2, 3})) {
		t.Error("length mismatch should be NaN")
	}
}

func TestKSIdenticalIsZero(t *testing.T) {
	rv := stochastic.FromDist(stochastic.Normal{Mu: 0, Sigma: 1}, 128)
	if d := KS(rv, rv, -8, 8, 0); d != 0 {
		t.Errorf("KS(self) = %g, want 0", d)
	}
	if d := CMArea(rv, rv, -8, 8, 0); d != 0 {
		t.Errorf("CM(self) = %g, want 0", d)
	}
}

func TestKSShiftedNormals(t *testing.T) {
	// KS between N(0,1) and N(d,1) is 2Φ(d/2) − 1.
	a := stochastic.FromDist(stochastic.Normal{Mu: 0, Sigma: 1}, 512)
	b := stochastic.FromDist(stochastic.Normal{Mu: 1, Sigma: 1}, 512)
	want := 2*stochastic.Normal{Mu: 0, Sigma: 1}.CDF(0.5) - 1
	if d := KS(a, b, -8, 9, 2048); !almostEqual(d, want, 0.01) {
		t.Errorf("KS = %g, want %g", d, want)
	}
	// CM area between N(0,1) and N(d,1) is exactly d.
	if cm := CMArea(a, b, -8, 9, 2048); !almostEqual(cm, 1, 0.02) {
		t.Errorf("CM area = %g, want 1", cm)
	}
}

func TestKSAgainstEmpirical(t *testing.T) {
	n := stochastic.Normal{Mu: 10, Sigma: 2}
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = n.Sample(rng)
	}
	emp := stochastic.NewEmpirical(samples)
	rv := stochastic.FromDist(n, 512)
	d := KSAgainstEmpirical(rv, emp)
	// With 20k samples the KS distance to the truth is ~1/sqrt(n)≈0.01.
	if d > 0.03 {
		t.Errorf("KS vs empirical = %g, want < 0.03", d)
	}
	if KSAgainstEmpirical(rv, stochastic.NewEmpirical(nil)) != 0 {
		t.Error("empty empirical should give 0")
	}
}

// perCallCDF is Numeric.CDFAt as it was before CDFTable, rebuilt from
// the public API: a fresh cumulative trapezoid of PDFGrid() for every
// x. It is not a *stochastic.Numeric, so the distances evaluate it
// point by point.
type perCallCDF struct{ rv *stochastic.Numeric }

func (c perCallCDF) CDFAt(x float64) float64 {
	rv := c.rv
	if rv.IsPoint() {
		if x < rv.Lo() {
			return 0
		}
		return 1
	}
	if x <= rv.Lo() {
		return 0
	}
	if x >= rv.Hi() {
		return 1
	}
	h := rv.Step()
	cum := numeric.CumTrapezoid(rv.PDFGrid(), h)
	pos := (x - rv.Lo()) / h
	i := int(pos)
	if i >= len(cum)-1 {
		return numeric.Clamp(cum[len(cum)-1], 0, 1)
	}
	frac := pos - float64(i)
	v := cum[i] + frac*(cum[i+1]-cum[i])
	return numeric.Clamp(v, 0, 1)
}

// edgeSamples returns samples at every edge of rv's CDF: below Lo,
// exactly at Lo and Hi, above Hi, every grid node, inside the top grid
// cell up to the float just below Hi, and uniform interior draws.
func edgeSamples(rv *stochastic.Numeric, rng *rand.Rand) []float64 {
	lo, hi := rv.Lo(), rv.Hi()
	xs := []float64{lo - 1, math.Nextafter(lo, math.Inf(-1)), lo, math.Nextafter(lo, math.Inf(1)),
		hi, math.Nextafter(hi, math.Inf(1)), hi + 1}
	if rv.IsPoint() {
		return xs
	}
	h := rv.Step()
	xs = append(xs, rv.XGrid()...)
	xs = append(xs, hi-h/2, hi-h/1e6, math.Nextafter(hi, math.Inf(-1)))
	for i := 0; i < 2000; i++ {
		xs = append(xs, lo+(hi-lo)*rng.Float64())
	}
	return xs
}

// Tabulating a numeric CDF once must not move a bit: the distances and
// the pointwise CDF equal the per-call integration at every edge of
// the support, for grid densities and a point variable.
func TestDistancesMatchPerCallCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rv := range []*stochastic.Numeric{
		stochastic.FromDist(stochastic.NewBetaUL(10, 1.3), stochastic.DefaultGridSize),
		stochastic.FromDist(stochastic.Normal{Mu: 0, Sigma: 1}, 512),
		stochastic.NewPoint(4),
	} {
		emp := stochastic.NewEmpirical(edgeSamples(rv, rng))
		old := perCallCDF{rv}
		lo, hi := SupportUnion(rv, emp)
		same := func(name string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("[%g,%g] %s = %v, per-call CDF gives %v", rv.Lo(), rv.Hi(), name, got, want)
			}
		}
		for _, x := range emp.Sorted() {
			same("CDFAt", rv.CDFAt(x), old.CDFAt(x))
		}
		same("KSAgainstEmpirical", KSAgainstEmpirical(rv, emp), KSAgainstEmpirical(old, emp))
		same("CMArea", CMArea(rv, emp, lo, hi, 1024), CMArea(old, emp, lo, hi, 1024))
		same("KS", KS(rv, emp, lo, hi, 1024), KS(old, emp, lo, hi, 1024))
		same("CvMSquared", CvMSquared(emp, rv, lo, hi, 1024), CvMSquared(emp, old, lo, hi, 1024))
	}
}

// KSAgainstEmpirical tabulates the numeric CDF once per call, not once
// per sample, so its allocations do not grow with the sample count.
func TestKSAgainstEmpiricalAllocations(t *testing.T) {
	d := stochastic.NewBetaUL(10, 1.3)
	rv := stochastic.FromDist(d, stochastic.DefaultGridSize)
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	emp := stochastic.NewEmpirical(samples)
	allocs := testing.AllocsPerRun(3, func() { KSAgainstEmpirical(rv, emp) })
	if allocs > 2 {
		t.Errorf("KSAgainstEmpirical allocates %g times on %d samples, want <= 2", allocs, len(samples))
	}
}

func TestSupportUnion(t *testing.T) {
	rv := stochastic.FromDist(stochastic.Uniform{Lo: 2, Hi: 5}, 64)
	emp := stochastic.NewEmpirical([]float64{1, 4, 7})
	lo, hi := SupportUnion(rv, emp)
	if lo != 1 || hi != 7 {
		t.Errorf("union = [%g,%g], want [1,7]", lo, hi)
	}
}

func TestCorrMatrix(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	zs := []float64{4, 3, 2, 1}
	m, err := CorrMatrix([][]float64{xs, ys, zs})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m[0][1], 1, 1e-12) || !almostEqual(m[0][2], -1, 1e-12) {
		t.Errorf("matrix = %v", m)
	}
	for i := 0; i < 3; i++ {
		if m[i][i] != 1 {
			t.Error("diagonal must be 1")
		}
		for j := 0; j < 3; j++ {
			if m[i][j] != m[j][i] {
				t.Error("matrix must be symmetric")
			}
		}
	}
	if _, err := CorrMatrix(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := CorrMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("accepted ragged input")
	}
}

// A zero-variance (constant) metric column must yield NaN off-diagonal
// entries — never a panic, an Inf, or a spurious ±1 — and leave every
// other entry untouched.
func TestCorrMatrixConstantColumn(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	konst := []float64{5, 5, 5, 5} // e.g. σ_M of a Dirac-duration case
	ys := []float64{8, 6, 4, 2}
	m, err := CorrMatrix([][]float64{xs, konst, ys})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2} {
		if !math.IsNaN(m[1][j]) || !math.IsNaN(m[j][1]) {
			t.Errorf("constant column vs %d = %g, want NaN", j, m[1][j])
		}
	}
	if m[1][1] != 1 {
		t.Error("diagonal of a constant column must stay 1")
	}
	if !almostEqual(m[0][2], -1, 1e-12) {
		t.Errorf("non-degenerate pair disturbed: %g", m[0][2])
	}
}

func TestAggregateMatricesAllNaNCell(t *testing.T) {
	// A cell that is NaN in every case has no data at all: the
	// aggregate must mark it NaN, not zero.
	m1 := [][]float64{{1, math.NaN()}, {math.NaN(), 1}}
	m2 := [][]float64{{1, math.NaN()}, {math.NaN(), 1}}
	mean, std, err := AggregateMatrices([][][]float64{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(mean[0][1]) || !math.IsNaN(std[0][1]) {
		t.Errorf("all-NaN cell aggregated to %g/%g, want NaN", mean[0][1], std[0][1])
	}
	if mean[0][0] != 1 {
		t.Error("diagonal lost")
	}
}

func TestAggregateMatrices(t *testing.T) {
	m1 := [][]float64{{1, 0.5}, {0.5, 1}}
	m2 := [][]float64{{1, 0.7}, {0.7, 1}}
	mean, std, err := AggregateMatrices([][][]float64{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mean[0][1], 0.6, 1e-12) {
		t.Errorf("mean[0][1] = %g, want 0.6", mean[0][1])
	}
	if !almostEqual(std[0][1], 0.1, 1e-12) {
		t.Errorf("std[0][1] = %g, want 0.1", std[0][1])
	}
	// NaN entries are skipped.
	m3 := [][]float64{{1, math.NaN()}, {math.NaN(), 1}}
	mean, std, err = AggregateMatrices([][][]float64{m1, m3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mean[0][1], 0.5, 1e-12) || std[0][1] != 0 {
		t.Errorf("NaN skipping failed: mean %g std %g", mean[0][1], std[0][1])
	}
	if _, _, err := AggregateMatrices(nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestFormatMatrix(t *testing.T) {
	mean := [][]float64{{1, 0.981}, {0.981, 1}}
	std := [][]float64{{0, 0.022}, {0.022, 0}}
	out := FormatMatrix([]string{"lateness", "absprob"}, mean, std)
	if !strings.Contains(out, "0.981") || !strings.Contains(out, "0.022") {
		t.Errorf("formatted matrix missing values:\n%s", out)
	}
	if !strings.Contains(out, "lateness") {
		t.Error("labels missing")
	}
}

func TestCvMSquared(t *testing.T) {
	rv := stochastic.FromDist(stochastic.Normal{Mu: 0, Sigma: 1}, 512)
	if d := CvMSquared(rv, rv, -8, 8, 0); d != 0 {
		t.Errorf("CvM(self) = %g, want 0", d)
	}
	// Shifted normals: omega^2 positive, bounded by KS^2.
	b := stochastic.FromDist(stochastic.Normal{Mu: 0.5, Sigma: 1}, 512)
	w := CvMSquared(rv, b, -8, 8.5, 1024)
	ks := KS(rv, b, -8, 8.5, 1024)
	if w <= 0 {
		t.Error("CvM of distinct distributions must be positive")
	}
	if w > ks*ks {
		t.Errorf("omega2 = %g exceeds KS^2 = %g", w, ks*ks)
	}
	// Scale-free: stretching x by 10 leaves omega^2 unchanged.
	a10 := stochastic.FromDist(stochastic.Normal{Mu: 0, Sigma: 10}, 512)
	b10 := stochastic.FromDist(stochastic.Normal{Mu: 5, Sigma: 10}, 512)
	w10 := CvMSquared(a10, b10, -80, 85, 1024)
	if math.Abs(w-w10) > 0.05*w {
		t.Errorf("omega2 not scale-free: %g vs %g", w, w10)
	}
	if CvMSquared(rv, b, 5, 5, 0) != 0 {
		t.Error("degenerate interval should give 0")
	}
}
