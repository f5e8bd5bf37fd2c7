// Package stats provides the statistical machinery of the comparison:
// Pearson correlation coefficients and their aggregation across
// experiments, and the two CDF distances the paper uses to validate the
// makespan evaluation — Kolmogorov–Smirnov and the area variant of
// Cramér–von-Mises.
package stats

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// Pearson returns the Pearson correlation coefficient of xs and ys.
// Degenerate inputs (length < 2, mismatched lengths, or zero variance)
// return NaN.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := numeric.Mean(xs), numeric.Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 { //reprovet:allow floateq correlation is undefined only at exactly zero variance
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CDF is anything that can evaluate its cumulative distribution —
// stochastic.Numeric, its CDFTable and stochastic.Empirical satisfy it.
type CDF interface {
	CDFAt(x float64) float64
}

var (
	_ CDF = (*stochastic.Numeric)(nil)
	_ CDF = stochastic.CDFTable{}
	_ CDF = (*stochastic.Empirical)(nil)
)

// tabulate replaces a numeric CDF by its table, so the distances below
// integrate its density once instead of once per evaluated point. The
// values are identical; any other CDF passes through.
func tabulate(f CDF) CDF {
	if rv, ok := f.(*stochastic.Numeric); ok {
		return rv.CDFTable()
	}
	return f
}

// KS returns the Kolmogorov–Smirnov distance sup|F1−F2| between two
// CDFs, estimated on a uniform grid of gridN points over [lo, hi]
// (gridN <= 0 selects 512).
func KS(f1, f2 CDF, lo, hi float64, gridN int) float64 {
	if gridN <= 0 {
		gridN = 512
	}
	f1, f2 = tabulate(f1), tabulate(f2)
	var d float64
	for _, x := range numeric.Linspace(lo, hi, gridN) {
		if v := math.Abs(f1.CDFAt(x) - f2.CDFAt(x)); v > d {
			d = v
		}
	}
	return d
}

// KSAgainstEmpirical returns the exact KS distance between a
// continuous CDF and an empirical one, evaluated at the sample jump
// points (both sides of each step).
func KSAgainstEmpirical(f CDF, emp *stochastic.Empirical) float64 {
	sorted := emp.Sorted()
	n := len(sorted)
	if n == 0 {
		return 0
	}
	f = tabulate(f)
	var d float64
	for i, x := range sorted {
		fx := f.CDFAt(x)
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		if v := math.Abs(fx - lo); v > d {
			d = v
		}
		if v := math.Abs(fx - hi); v > d {
			d = v
		}
	}
	return d
}

// CMArea returns the paper's Cramér–von-Mises variant: the area
// between the two CDFs, ∫|F1−F2| dx over [lo, hi] (gridN <= 0 selects
// 512 Simpson points).
func CMArea(f1, f2 CDF, lo, hi float64, gridN int) float64 {
	if gridN <= 0 {
		gridN = 512
	}
	if hi <= lo {
		return 0
	}
	f1, f2 = tabulate(f1), tabulate(f2)
	xs := numeric.Linspace(lo, hi, gridN)
	y := make([]float64, gridN)
	for i, x := range xs {
		y[i] = math.Abs(f1.CDFAt(x) - f2.CDFAt(x))
	}
	return numeric.SimpsonUniform(y, xs[1]-xs[0])
}

// CvMSquared returns the classical Cramér–von-Mises statistic
// ω² = ∫ (F1(x) − F2(x))² dF2(x), integrated on a uniform grid over
// [lo, hi] (gridN <= 0 selects 512). Unlike CMArea it is scale-free in
// x, so it is comparable across distributions with different supports.
func CvMSquared(f1, f2 CDF, lo, hi float64, gridN int) float64 {
	if gridN <= 0 {
		gridN = 512
	}
	if hi <= lo {
		return 0
	}
	f1, f2 = tabulate(f1), tabulate(f2)
	xs := numeric.Linspace(lo, hi, gridN)
	// dF2 between consecutive grid points, midpoint value of (ΔF)².
	var sum float64
	prevF2 := f2.CDFAt(xs[0])
	prevD := f1.CDFAt(xs[0]) - prevF2
	for i := 1; i < gridN; i++ {
		curF2 := f2.CDFAt(xs[i])
		curD := f1.CDFAt(xs[i]) - curF2
		mid := (prevD + curD) / 2
		sum += mid * mid * (curF2 - prevF2)
		prevF2, prevD = curF2, curD
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// SupportUnion returns a common evaluation interval for a numeric and
// an empirical distribution.
func SupportUnion(rv *stochastic.Numeric, emp *stochastic.Empirical) (lo, hi float64) {
	lo, hi = rv.Lo(), rv.Hi()
	if emp.Len() > 0 {
		if emp.Min() < lo {
			lo = emp.Min()
		}
		if emp.Max() > hi {
			hi = emp.Max()
		}
	}
	return lo, hi
}
