package stochastic

import (
	"math"

	"repro/internal/numeric"
)

// DefaultGridSize is the number of PDF samples used to represent a
// numeric random variable. The paper found 64 points with cubic-spline
// interpolation "largely sufficient".
const DefaultGridSize = 64

// DefaultMaxWorkGrid caps the intermediate grid used during convolution
// so that summing a very wide density with a very narrow one stays
// bounded. It is the reference value of EvalAccuracy.WorkGrid; lower
// caps trade accuracy on wide×narrow sums for speed.
const DefaultMaxWorkGrid = 8192

// Numeric is a random variable represented numerically by its density
// sampled on a uniform grid over [lo, hi] (endpoints included). It
// supports the two operators the makespan computation needs — the sum of
// independent variables (convolution of densities, a direct sum) and the
// maximum of independent variables (product of CDFs) — plus moments,
// differential entropy, CDF evaluation and quantiles.
//
// A degenerate (Dirac) variable is represented exactly with the point
// flag rather than as a spike, so sums degrade to shifts and maxima to
// truncations.
type Numeric struct {
	lo, hi float64
	pdf    []float64
	point  bool
}

// NewPoint returns the degenerate variable concentrated at v.
func NewPoint(v float64) *Numeric {
	return &Numeric{lo: v, hi: v, point: true}
}

// FromDist discretizes d on an n-point grid over its support. Dirac
// distributions become exact point variables. n <= 0 selects
// DefaultGridSize.
func FromDist(d Dist, n int) *Numeric {
	if n <= 0 {
		n = DefaultGridSize
	}
	lo, hi := d.Support()
	if hi <= lo {
		return NewPoint(lo)
	}
	if dd, ok := d.(Dirac); ok {
		return NewPoint(dd.Value)
	}
	xs := numeric.Linspace(lo, hi, n)
	pdf := make([]float64, n)
	for i, x := range xs {
		v := d.PDF(x)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = 0 // endpoint singularities carry no mass on a grid
		}
		pdf[i] = v
	}
	rv := &Numeric{lo: lo, hi: hi, pdf: pdf}
	rv.clampNormalize()
	return rv
}

// Lo returns the lower end of the support.
func (rv *Numeric) Lo() float64 { return rv.lo }

// Hi returns the upper end of the support.
func (rv *Numeric) Hi() float64 { return rv.hi }

// IsPoint reports whether the variable is degenerate.
func (rv *Numeric) IsPoint() bool { return rv.point }

// GridSize returns the number of density samples (0 for a point).
func (rv *Numeric) GridSize() int { return len(rv.pdf) }

// Step returns the grid spacing (0 for a point).
func (rv *Numeric) Step() float64 {
	if rv.point || len(rv.pdf) < 2 {
		return 0
	}
	return (rv.hi - rv.lo) / float64(len(rv.pdf)-1)
}

// PDFGrid returns a copy of the density samples.
func (rv *Numeric) PDFGrid() []float64 { return append([]float64(nil), rv.pdf...) }

// XGrid returns the abscissa grid matching PDFGrid.
func (rv *Numeric) XGrid() []float64 {
	if rv.point {
		return []float64{rv.lo}
	}
	return numeric.Linspace(rv.lo, rv.hi, len(rv.pdf))
}

// Clone returns a deep copy.
func (rv *Numeric) Clone() *Numeric {
	c := *rv
	c.pdf = append([]float64(nil), rv.pdf...)
	return &c
}

func (rv *Numeric) clampNormalize() {
	for i, v := range rv.pdf {
		if v < 0 || math.IsNaN(v) {
			rv.pdf[i] = 0
		}
	}
	mass := numeric.TrapezoidUniform(rv.pdf, rv.Step())
	if mass <= 0 {
		// No usable mass: collapse to the midpoint.
		mid := (rv.lo + rv.hi) / 2
		rv.lo, rv.hi, rv.pdf, rv.point = mid, mid, nil, true
		return
	}
	inv := 1 / mass
	for i := range rv.pdf {
		rv.pdf[i] *= inv
	}
}

// PDFAt evaluates the density at x by cubic-spline interpolation
// (0 outside the support, 0 for point variables).
func (rv *Numeric) PDFAt(x float64) float64 {
	if rv.point || x < rv.lo || x > rv.hi {
		return 0
	}
	sp, err := numeric.NewSpline(rv.XGrid(), rv.pdf)
	if err != nil {
		return 0
	}
	v := sp.At(x)
	if v < 0 {
		return 0
	}
	return v
}

// CDFAt evaluates the CDF at x by linear interpolation of the cumulative
// trapezoidal integral of the density. Each call integrates the density
// afresh; callers reading many points should tabulate once with
// CDFTable.
func (rv *Numeric) CDFAt(x float64) float64 {
	return rv.CDFTable().CDFAt(x)
}

// below is the CDF left of the support: 0, or NaN for a NaN x, which
// fails every comparison and so reaches the same branch.
func below(x float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	return 0
}

// CDFTable is the CDF of a Numeric tabulated once: the cumulative
// trapezoidal integral of its density on its grid, so each CDFAt is an
// interpolation without re-integrating.
type CDFTable struct {
	lo, hi, h float64
	cum       []float64
	point     bool
}

// CDFTable integrates the density once for repeated CDF reads.
func (rv *Numeric) CDFTable() CDFTable {
	return rv.cdfTableInto(make([]float64, len(rv.pdf)))
}

// cdfTableInto is CDFTable with the cumulative integral written into
// cum, which must be len(rv.pdf) long.
func (rv *Numeric) cdfTableInto(cum []float64) CDFTable {
	h := rv.Step()
	return CDFTable{lo: rv.lo, hi: rv.hi, h: h, cum: numeric.CumTrapezoidInto(cum, rv.pdf, h), point: rv.point}
}

// CDFAt evaluates the tabulated CDF at x by linear interpolation. A
// NaN x reads NaN.
func (t CDFTable) CDFAt(x float64) float64 {
	if t.point {
		if !(x >= t.lo) {
			return below(x)
		}
		return 1
	}
	if !(x > t.lo) {
		return below(x)
	}
	if x >= t.hi {
		return 1
	}
	cum := t.cum
	pos := (x - t.lo) / t.h
	i := int(pos)
	if i >= len(cum)-1 {
		return numeric.Clamp(cum[len(cum)-1], 0, 1)
	}
	frac := pos - float64(i)
	v := cum[i] + frac*(cum[i+1]-cum[i])
	return numeric.Clamp(v, 0, 1)
}

// Mean returns E[X] via Simpson integration of x·f(x), normalized by
// the Simpson mass of f so that grid-cell spikes (atoms folded into a
// cell by MaxWith) do not bias the moments.
func (rv *Numeric) Mean() float64 {
	if rv.point {
		return rv.lo
	}
	xs := rv.XGrid()
	y := make([]float64, len(xs))
	for i := range xs {
		y[i] = xs[i] * rv.pdf[i]
	}
	h := rv.Step()
	mass := numeric.SimpsonUniform(rv.pdf, h)
	if mass <= 0 {
		return (rv.lo + rv.hi) / 2
	}
	return numeric.SimpsonUniform(y, h) / mass
}

// Variance returns Var[X] = E[(X−E[X])²], with the same Simpson-mass
// normalization as Mean.
func (rv *Numeric) Variance() float64 {
	if rv.point {
		return 0
	}
	mu := rv.Mean()
	xs := rv.XGrid()
	y := make([]float64, len(xs))
	for i := range xs {
		d := xs[i] - mu
		y[i] = d * d * rv.pdf[i]
	}
	h := rv.Step()
	mass := numeric.SimpsonUniform(rv.pdf, h)
	if mass <= 0 {
		return 0
	}
	v := numeric.SimpsonUniform(y, h) / mass
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the standard deviation.
func (rv *Numeric) StdDev() float64 { return math.Sqrt(rv.Variance()) }

// Entropy returns the differential entropy h(X) = −∫ f ln f, with the
// convention 0·ln 0 = 0. A point variable has entropy −Inf. Note the
// paper prints the formula without the minus sign; we use the standard
// definition so that smaller entropy means a narrower (more robust)
// distribution, matching how the paper ranks schedules.
func (rv *Numeric) Entropy() float64 {
	if rv.point {
		return math.Inf(-1)
	}
	y := make([]float64, len(rv.pdf))
	for i, f := range rv.pdf {
		if f > 0 {
			y[i] = -f * math.Log(f)
		}
	}
	return numeric.SimpsonUniform(y, rv.Step())
}

// Quantile returns the smallest x with CDF(x) >= p (p clamped to
// [0,1]), and NaN for a NaN p.
func (rv *Numeric) Quantile(p float64) float64 {
	if math.IsNaN(p) {
		return p
	}
	p = numeric.Clamp(p, 0, 1)
	if rv.point {
		return rv.lo
	}
	h := rv.Step()
	cum := numeric.CumTrapezoid(rv.pdf, h)
	total := cum[len(cum)-1]
	if total <= 0 {
		return rv.lo
	}
	target := p * total
	for i := 1; i < len(cum); i++ {
		if cum[i] >= target {
			span := cum[i] - cum[i-1]
			frac := 0.0
			if span > 0 {
				frac = (target - cum[i-1]) / span
			}
			return rv.lo + (float64(i-1)+frac)*h
		}
	}
	return rv.hi
}

// Add returns the distribution of X+Y assuming independence, by
// convolving the densities and resampling the result to gridSize
// points. gridSize <= 0 selects DefaultGridSize. The intermediate grid
// uses the reference work-grid cap; AddAcc exposes the cap as part of
// an EvalAccuracy.
func (rv *Numeric) Add(other *Numeric, gridSize int) *Numeric {
	return rv.AddAcc(other, EvalAccuracy{GridSize: gridSize})
}

// AddAcc is Add under an explicit accuracy contract, computed by
// Ops.AddAcc in a fresh workspace.
func (rv *Numeric) AddAcc(other *Numeric, acc EvalAccuracy) *Numeric {
	return new(Ops).AddAcc(rv, other, acc)
}

// MaxAcc is MaxWith under an explicit accuracy contract, computed by
// Ops.MaxAcc in a fresh workspace. Only acc.GridSize matters.
func (rv *Numeric) MaxAcc(other *Numeric, acc EvalAccuracy) *Numeric {
	return new(Ops).MaxAcc(rv, other, acc)
}

// MaxWith returns the distribution of max(X, Y) assuming independence
// on a gridSize-point grid (<= 0 selects DefaultGridSize), computed by
// Ops.MaxAcc in a fresh workspace.
func (rv *Numeric) MaxWith(other *Numeric, gridSize int) *Numeric {
	return rv.MaxAcc(other, EvalAccuracy{GridSize: gridSize})
}

// PDFOnGrid evaluates the density at each point of xs with a single
// spline construction (0 outside the support), computed by Ops in a
// fresh workspace.
func (rv *Numeric) PDFOnGrid(xs []float64) []float64 {
	var out []float64
	return new(Ops).pdfOnGridInto(&out, rv, xs)
}
