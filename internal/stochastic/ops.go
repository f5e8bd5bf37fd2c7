package stochastic

import (
	"math"

	"repro/internal/numeric"
)

// Ops implements the two operators of the makespan evaluation: AddAcc
// (the sum of independent variables, by convolution) and MaxAcc (their
// maximum, by CDF product). It is a workspace: every intermediate grid
// comes from reusable scratch and every result density from a free list
// fed by Recycle, so a steady-state evaluation loop performs no
// per-operation allocations. No result depends on what the scratch or
// the free list held before. Numeric's Add, AddAcc, MaxWith and MaxAcc
// run it in a fresh workspace; ops_test.go keeps the allocating
// statement of the same arithmetic as its oracle.
//
// An Ops value is not safe for concurrent use; evaluation pipelines
// keep one per worker. Input variables are never mutated, so cached
// (shared) Numerics may be passed freely.
type Ops struct {
	spline  numeric.SplineScratch
	conv    numeric.ConvScratch
	sp, sp2 numeric.Spline // the two lanes of a paired fit

	knotXs  []float64 // spline knot grid of the operand being fitted
	knotXs2 []float64 // knot grid of the second lane's operand
	gridXs  []float64 // output evaluation grid (must outlive knotXs uses)
	fa, fb  []float64 // densities on the output grid
	ca, cb  []float64 // CDFs on the output grid
	cum     []float64 // cumulative-integral scratch

	add [2]addScratch // the grids of up to two sums in flight

	free [][]float64 // recycled result densities
}

// addScratch holds the intermediate grids of one Add.
type addScratch struct {
	pa, pb []float64 // work-grid resamples of the two operands
	cv     []float64 // convolution output
	convXs []float64 // convolution knot grid
}

// grow returns buf resized to n, reallocating only when capacity is
// short — then to at least twice the old capacity, so a workspace whose
// grids widen case after case settles after a few reallocations.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}

// linspaceInto fills out with the shared uniform-grid formula — one
// definition (numeric.LinspaceInto) for both the allocating Numeric
// paths and the scratch paths, so the grids can never drift apart.
func linspaceInto(out []float64, lo, hi float64) []float64 {
	return numeric.LinspaceInto(out, lo, hi)
}

// getBuf pops a recycled density buffer of capacity >= n, or allocates
// one.
func (o *Ops) getBuf(n int) []float64 {
	for i := len(o.free) - 1; i >= 0; i-- {
		if b := o.free[i]; cap(b) >= n {
			o.free[i] = o.free[len(o.free)-1]
			o.free = o.free[:len(o.free)-1]
			return b[:n]
		}
	}
	return make([]float64, n)
}

// Recycle returns rv's density buffer to the free list. The caller must
// not use rv afterwards; rv must have been produced by this Ops (or
// otherwise own its buffer exclusively).
func (o *Ops) Recycle(rv *Numeric) {
	if rv == nil || rv.pdf == nil {
		return
	}
	o.free = append(o.free, rv.pdf)
	rv.pdf = nil
}

// Copy is Numeric.Clone with the copy's density drawn from the free
// list: the result is owned by the caller and may be Recycled.
// Dodin's cone duplication clones shared sub-structures through it so
// the copies stay inside the workspace's buffer discipline.
func (o *Ops) Copy(rv *Numeric) *Numeric { return o.copyOf(rv) }

// copyOf is Numeric.Clone with the copy drawn from the free list.
func (o *Ops) copyOf(rv *Numeric) *Numeric {
	out := &Numeric{lo: rv.lo, hi: rv.hi, point: rv.point}
	if rv.pdf != nil {
		out.pdf = o.getBuf(len(rv.pdf))
		copy(out.pdf, rv.pdf)
	}
	return out
}

// shiftCopy is a copy of rv translated by c.
func (o *Ops) shiftCopy(rv *Numeric, c float64) *Numeric {
	out := o.copyOf(rv)
	out.lo += c
	out.hi += c
	return out
}

// fitOperand builds the workspace spline over rv's knot grid, the
// spline every Numeric method constructs from XGrid()/pdf.
func (o *Ops) fitOperand(rv *Numeric) error {
	xs := linspaceInto(grow(&o.knotXs, len(rv.pdf)), rv.lo, rv.hi)
	return o.sp.Fit(xs, rv.pdf, &o.spline)
}

// resampleStepPair resamples a and b by spline at the work step h into
// s.pa and s.pb (at least 2 points each, negatives clamped to 0),
// fitting the two operand splines as a pair.
func (o *Ops) resampleStepPair(s *addScratch, a, b *Numeric, h float64) (pa, pb []float64) {
	xa := linspaceInto(grow(&o.knotXs, len(a.pdf)), a.lo, a.hi)
	xb := linspaceInto(grow(&o.knotXs2, len(b.pdf)), b.lo, b.hi)
	errA, errB := numeric.FitPair(&o.sp, xa, a.pdf, &o.sp2, xb, b.pdf, &o.spline)
	return resampleFitted(&s.pa, &o.sp, errA, a, h), resampleFitted(&s.pb, &o.sp2, errB, b, h)
}

// resampleFitted finishes the work-step resample of rv into dst from
// sp, already fitted over rv's knots with error err.
func resampleFitted(dst *[]float64, sp *numeric.Spline, err error, rv *Numeric, h float64) []float64 {
	n := int(math.Round((rv.hi-rv.lo)/h)) + 1
	if n < 2 {
		n = 2
	}
	if err != nil {
		out := grow(dst, 2)
		out[0], out[1] = 0, 0
		return out
	}
	out := sp.ResampleInto(grow(dst, n), rv.lo, rv.hi)
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		}
	}
	return out
}

// addPlan is the support and work step of one non-point sum: the
// support is the sum of the operands' supports, and the step the finer
// of their grid steps, coarsened until the support spans at most
// acc.WorkGrid steps.
type addPlan struct{ lo, hi, h float64 }

func planAdd(a, b *Numeric, acc EvalAccuracy) addPlan {
	lo := a.lo + b.lo
	hi := a.hi + b.hi
	h := math.Min(a.Step(), b.Step())
	if w, wcap := hi-lo, float64(acc.WorkGrid); w/h > wcap {
		h = w / wcap
	}
	return addPlan{lo: lo, hi: hi, h: h}
}

// convolve convolves the work-grid resamples pa and pb into s.cv, scales
// by the step and clamps negatives, and lays the convolution's knot
// grid into s.convXs.
func (o *Ops) convolve(s *addScratch, pa, pb []float64, p addPlan) (xs, conv []float64) {
	conv = numeric.ConvolveInto(grow(&s.cv, len(pa)+len(pb)-1), pa, pb, &o.conv)
	for i := range conv {
		conv[i] *= p.h
		if conv[i] < 0 {
			conv[i] = 0
		}
	}
	// The convolution grid spans [lo, lo+(len-1)h]; resample onto the
	// requested grid over the exact support.
	convHi := p.lo + float64(len(conv)-1)*p.h
	return linspaceInto(grow(&s.convXs, len(conv)), p.lo, convHi), conv
}

// addResult resamples the convolution spline sp (fitted with error err)
// onto the gridSize-point result density.
func (o *Ops) addResult(sp *numeric.Spline, err error, p addPlan, gridSize int) *Numeric {
	if err != nil {
		return NewPoint((p.lo + p.hi) / 2)
	}
	out := &Numeric{lo: p.lo, hi: p.hi, pdf: sp.ResampleInto(o.getBuf(gridSize), p.lo, p.hi)}
	out.clampNormalize()
	return out
}

// AddAcc returns the distribution of a+b assuming independence. A point
// operand shifts the other; otherwise both densities are resampled onto
// the common work step, convolved (numeric.ConvolveInto), and the
// convolution is spline-resampled onto acc.GridSize samples over the
// exact support. The intermediate convolution grid is capped at
// acc.WorkGrid points.
func (o *Ops) AddAcc(a, b *Numeric, acc EvalAccuracy) *Numeric {
	acc = acc.Canon()
	if a.point {
		return o.shiftCopy(b, a.lo)
	}
	if b.point {
		return o.shiftCopy(a, b.lo)
	}
	p := planAdd(a, b, acc)
	s := &o.add[0]
	pa, pb := o.resampleStepPair(s, a, b, p.h)
	xs, conv := o.convolve(s, pa, pb, p)
	err := o.sp.Fit(xs, conv, &o.spline)
	return o.addResult(&o.sp, err, p, acc.GridSize)
}

// AddPairAcc returns AddAcc(a1, b1, acc) and AddAcc(a2, b2, acc),
// bit-identical to the two calls, with the splines of the two sums
// fitted in lockstep: the operand fits of each sum as one pair and the
// two convolution-grid fits as another. When any operand is a point the
// sums have no spline work to pair and run as two AddAcc calls.
func (o *Ops) AddPairAcc(a1, b1, a2, b2 *Numeric, acc EvalAccuracy) (*Numeric, *Numeric) {
	if a1.point || b1.point || a2.point || b2.point {
		return o.AddAcc(a1, b1, acc), o.AddAcc(a2, b2, acc)
	}
	acc = acc.Canon()
	p1, p2 := planAdd(a1, b1, acc), planAdd(a2, b2, acc)
	s1, s2 := &o.add[0], &o.add[1]
	pa1, pb1 := o.resampleStepPair(s1, a1, b1, p1.h)
	pa2, pb2 := o.resampleStepPair(s2, a2, b2, p2.h)
	xs1, conv1 := o.convolve(s1, pa1, pb1, p1)
	xs2, conv2 := o.convolve(s2, pa2, pb2, p2)
	err1, err2 := numeric.FitPair(&o.sp, xs1, conv1, &o.sp2, xs2, conv2, &o.spline)
	return o.addResult(&o.sp, err1, p1, acc.GridSize), o.addResult(&o.sp2, err2, p2, acc.GridSize)
}

// pdfOnGridInto is Numeric.PDFOnGrid into dst.
func (o *Ops) pdfOnGridInto(dst *[]float64, rv *Numeric, xs []float64) []float64 {
	out := grow(dst, len(xs))
	for i := range out {
		out[i] = 0
	}
	if rv.point {
		return out
	}
	if err := o.fitOperand(rv); err != nil {
		return out
	}
	for i, x := range xs {
		if x < rv.lo || x > rv.hi {
			continue
		}
		v := o.sp.At(x)
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// cdfOnGridInto evaluates rv's CDF at each point of xs into dst: the
// cumulative trapezoidal integral of its density, interpolated linearly
// and normalized by its total.
func (o *Ops) cdfOnGridInto(dst *[]float64, rv *Numeric, xs []float64) []float64 {
	out := grow(dst, len(xs))
	if rv.point {
		for i, x := range xs {
			if x >= rv.lo {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
		return out
	}
	h := rv.Step()
	cum := numeric.CumTrapezoidInto(grow(&o.cum, len(rv.pdf)), rv.pdf, h)
	total := cum[len(cum)-1]
	for i, x := range xs {
		switch {
		case x <= rv.lo:
			out[i] = 0
		case x >= rv.hi:
			out[i] = 1
		default:
			pos := (x - rv.lo) / h
			j := int(pos)
			if j >= len(cum)-1 {
				out[i] = 1
				continue
			}
			frac := pos - float64(j)
			v := cum[j] + frac*(cum[j+1]-cum[j])
			if total > 0 {
				v /= total
			}
			out[i] = numeric.Clamp(v, 0, 1)
		}
	}
	return out
}

// MaxAcc returns the distribution of max(x, y) assuming independence:
// F(x) = F_X(x)·F_Y(x), densified by f = f_X·F_Y + F_X·f_Y on an
// acc.GridSize-point grid. The maximum never builds an intermediate
// grid, so only acc.GridSize matters. A constant inside the other
// operand's support truncates it, and disjoint supports return a copy
// of the dominating operand.
func (o *Ops) MaxAcc(x, y *Numeric, acc EvalAccuracy) *Numeric {
	gridSize := acc.Canon().GridSize
	a, b := x, y
	// Point cases.
	if a.point && b.point {
		return NewPoint(math.Max(a.lo, b.lo))
	}
	if a.point {
		a, b = b, a
	}
	if b.point {
		c := b.lo
		switch {
		case c <= a.lo:
			return o.copyOf(a)
		case c >= a.hi:
			return NewPoint(c)
		default:
			// Truncate below c; the atom P(X<=c) is folded into the
			// first grid cell (a documented approximation — in the
			// scheduling pipeline constants only arise at 0, below any
			// duration support). One spline fit gives every grid
			// point's PDFAt value.
			atom := a.cdfTableInto(grow(&o.cum, len(a.pdf))).CDFAt(c)
			n := gridSize
			xs := linspaceInto(grow(&o.gridXs, n), c, a.hi)
			pdf := o.getBuf(n)
			fitErr := o.fitOperand(a)
			for i, xv := range xs {
				pdf[i] = 0
				if fitErr != nil || xv < a.lo || xv > a.hi {
					continue
				}
				if v := o.sp.At(xv); v > 0 {
					pdf[i] = v
				}
			}
			h := (a.hi - c) / float64(n-1)
			if h > 0 && atom > 0 {
				pdf[0] += 2 * atom / h // triangle of mass `atom` at the left edge
			}
			out := &Numeric{lo: c, hi: a.hi, pdf: pdf}
			out.clampNormalize()
			return out
		}
	}
	// Disjoint supports: one variable dominates.
	if a.hi <= b.lo {
		return o.copyOf(b)
	}
	if b.hi <= a.lo {
		return o.copyOf(a)
	}
	lo := math.Max(a.lo, b.lo)
	hi := math.Max(a.hi, b.hi)
	xs := linspaceInto(grow(&o.gridXs, gridSize), lo, hi)
	fa := o.pdfOnGridInto(&o.fa, a, xs)
	fb := o.pdfOnGridInto(&o.fb, b, xs)
	Fa := o.cdfOnGridInto(&o.ca, a, xs)
	Fb := o.cdfOnGridInto(&o.cb, b, xs)
	pdf := o.getBuf(gridSize)
	for i := range xs {
		pdf[i] = fa[i]*Fb[i] + Fa[i]*fb[i]
	}
	out := &Numeric{lo: lo, hi: hi, pdf: pdf}
	out.clampNormalize()
	return out
}
