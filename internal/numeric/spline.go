package numeric

import "fmt"

// Spline is a natural cubic spline through a set of strictly increasing
// knots. It reproduces the cubic-spline interpolation the paper uses to
// resample 64-point densities.
type Spline struct {
	x, y       []float64
	m          []float64 // second derivatives at the knots
	extrapZero bool
}

// SplineScratch holds the Thomas-algorithm work arrays of a spline fit,
// so hot loops can rebuild splines without allocating. The zero value is
// ready to use.
type SplineScratch struct {
	b, c, d []float64
}

// grow returns the diagonal, super-diagonal and right-hand-side rows of
// an n-point system, growing the arrays geometrically so a sequence of
// widening fits reallocates only logarithmically often.
func (ws *SplineScratch) grow(n int) (b, c, d []float64) {
	if cap(ws.b) < n {
		size := max(n, 2*cap(ws.b))
		ws.b = make([]float64, size)
		ws.c = make([]float64, size)
		ws.d = make([]float64, size)
	}
	return ws.b[:n], ws.c[:n], ws.d[:n]
}

// NewSpline builds a natural cubic spline through (x[i], y[i]). x must be
// strictly increasing and have at least 2 points.
func NewSpline(x, y []float64) (*Spline, error) {
	s := &Spline{}
	var ws SplineScratch
	if err := s.fit(x, y, &ws, true); err != nil {
		return nil, err
	}
	return s, nil
}

// Fit (re)initializes the spline over x and y without copying them: the
// caller must keep both slices alive and unmodified for the spline's
// lifetime. The second-derivative vector and the scratch arrays are
// reused across calls, so steady-state refits are allocation-free. The
// fitted spline is bit-for-bit identical to NewSpline(x, y).
func (s *Spline) Fit(x, y []float64, ws *SplineScratch) error {
	s.extrapZero = false
	return s.fit(x, y, ws, false)
}

// FitPair fits s over (x, y) and t over (u, v), two independent systems
// of any lengths, and returns each fit's error. The two Thomas sweeps
// run in lockstep, so the division chains of the two recurrences
// overlap; every operation of each system is the one Fit performs, so
// the splines are bit-for-bit identical to s.Fit(x, y, ws) followed by
// t.Fit(u, v, ws). As with Fit, the knot slices are borrowed.
func FitPair(s *Spline, x, y []float64, t *Spline, u, v []float64, ws *SplineScratch) (errS, errT error) {
	errS, errT = checkKnots(x, y), checkKnots(u, v)
	if errS != nil || errT != nil || len(x) == 2 || len(u) == 2 {
		// Nothing to overlap: at most one system needs a solve.
		if errS == nil {
			errS = s.Fit(x, y, ws)
		}
		if errT == nil {
			errT = t.Fit(u, v, ws)
		}
		return errS, errT
	}
	s.extrapZero, t.extrapZero = false, false
	s.setKnots(x, y, false)
	t.setKnots(u, v, false)
	n1, n2 := len(x), len(u)
	b, c, d := ws.grow(n1 + n2)
	l1 := newThomasLane(x, y, b[:n1], c[:n1], d[:n1])
	l2 := newThomasLane(u, v, b[n1:], c[n1:], d[n1:])
	common := min(n1, n2) - 1
	rowsPair(&l1, &l2, common)
	l1.rows(common, n1-1)
	l2.rows(common, n2-1)
	l1.last()
	l2.last()
	backSubstitutePair(s.m, &l1, t.m, &l2)
	return nil, nil
}

// checkKnots validates a spline's knot vector before any state changes.
func checkKnots(x, y []float64) error {
	n := len(x)
	if n != len(y) {
		return fmt.Errorf("numeric: spline needs len(x)==len(y), got %d and %d", n, len(y))
	}
	if n < 2 {
		return fmt.Errorf("numeric: spline needs at least 2 points, got %d", n)
	}
	for i := 1; i < n; i++ {
		if x[i] <= x[i-1] {
			return fmt.Errorf("numeric: spline knots must be strictly increasing at index %d", i)
		}
	}
	return nil
}

// setKnots installs the knots (copied or borrowed) and sizes the
// second-derivative vector.
func (s *Spline) setKnots(x, y []float64, copyKnots bool) {
	if copyKnots {
		s.x = append(s.x[:0], x...)
		s.y = append(s.y[:0], y...)
	} else {
		s.x, s.y = x, y
	}
	n := len(x)
	if cap(s.m) < n {
		s.m = make([]float64, n)
	}
	s.m = s.m[:n]
}

func (s *Spline) fit(x, y []float64, ws *SplineScratch, copyKnots bool) error {
	if err := checkKnots(x, y); err != nil {
		return err
	}
	s.setKnots(x, y, copyKnots)
	n := len(x)
	if n == 2 {
		s.m[0], s.m[1] = 0, 0 // linear segment; second derivatives stay zero
		return nil
	}
	b, c, d := ws.grow(n)
	l := newThomasLane(x, y, b, c, d)
	l.rows(1, n-1)
	l.last()
	backSubstitute(s.m, &l)
	return nil
}

// thomasLane solves the tridiagonal system of a natural cubic spline
// (m[0] = m[n-1] = 0) with the Thomas algorithm, building each row and
// eliminating it in one pass. Row i (0 < i < n-1) is
//
//	a[i] = h[i], b[i] = 2(h[i]+h[i+1]), c[i] = h[i+1],
//	d[i] = 6((y[i+1]-y[i])/h[i+1] - (y[i]-y[i-1])/h[i]),
//
// with h[i] = x[i]-x[i-1]; the boundary rows are b = 1 and a = c = d = 0.
// The sweep performs exactly the operations of building all rows first
// and then eliminating (w = a[i]/b[i-1], b[i] -= w·c[i-1],
// d[i] -= w·d[i-1]), including the ones against the zero boundary
// coefficients, so the result is bit-identical to that three-pass form.
// The width and slope of the previous interval are carried instead of
// recomputed: they are the same operations on the same operands.
type thomasLane struct {
	x, y    []float64
	b, c, d []float64 // eliminated diagonal, super-diagonal, right-hand side

	h, slope   float64 // width and slope of the interval left of the row
	bp, cp, dp float64 // previous row's b, c, d
}

// newThomasLane starts the sweep of an n >= 3 point system with its
// first boundary row.
func newThomasLane(x, y, b, c, d []float64) thomasLane {
	b[0], c[0], d[0] = 1, 0, 0
	h := x[1] - x[0]
	return thomasLane{x: x, y: y, b: b, c: c, d: d, h: h, slope: (y[1] - y[0]) / h, bp: 1}
}

// rows builds interior rows [from, to) and eliminates each against its
// predecessor. The carried state lives in locals for the loop.
func (l *thomasLane) rows(from, to int) {
	x, y, b, c, d := l.x, l.y, l.b, l.c, l.d
	h, slope, bp, cp, dp := l.h, l.slope, l.bp, l.cp, l.dp
	for i := from; i < to; i++ {
		h1 := x[i+1] - x[i]
		slope1 := (y[i+1] - y[i]) / h1
		w := h / bp
		bp = 2*(h+h1) - w*cp
		dp = 6*(slope1-slope) - w*dp
		cp = h1
		b[i], c[i], d[i] = bp, cp, dp
		h, slope = h1, slope1
	}
	l.h, l.slope, l.bp, l.cp, l.dp = h, slope, bp, cp, dp
}

// rowsPair is rows(1, to) on two systems in lockstep: the two division
// chains are independent, so they overlap in the pipeline.
func rowsPair(l1, l2 *thomasLane, to int) {
	x1, y1, b1, c1, d1 := l1.x, l1.y, l1.b, l1.c, l1.d
	x2, y2, b2, c2, d2 := l2.x, l2.y, l2.b, l2.c, l2.d
	h1, slope1, bp1, cp1, dp1 := l1.h, l1.slope, l1.bp, l1.cp, l1.dp
	h2, slope2, bp2, cp2, dp2 := l2.h, l2.slope, l2.bp, l2.cp, l2.dp
	for i := 1; i < to; i++ {
		g1 := x1[i+1] - x1[i]
		g2 := x2[i+1] - x2[i]
		t1 := (y1[i+1] - y1[i]) / g1
		t2 := (y2[i+1] - y2[i]) / g2
		w1 := h1 / bp1
		w2 := h2 / bp2
		bp1 = 2*(h1+g1) - w1*cp1
		bp2 = 2*(h2+g2) - w2*cp2
		dp1 = 6*(t1-slope1) - w1*dp1
		dp2 = 6*(t2-slope2) - w2*dp2
		cp1, cp2 = g1, g2
		b1[i], c1[i], d1[i] = bp1, cp1, dp1
		b2[i], c2[i], d2[i] = bp2, cp2, dp2
		h1, slope1 = g1, t1
		h2, slope2 = g2, t2
	}
	l1.h, l1.slope, l1.bp, l1.cp, l1.dp = h1, slope1, bp1, cp1, dp1
	l2.h, l2.slope, l2.bp, l2.cp, l2.dp = h2, slope2, bp2, cp2, dp2
}

// last eliminates the closing boundary row (a = 0, b = 1, d = 0).
func (l *thomasLane) last() {
	n := len(l.b)
	w := 0 / l.bp
	l.b[n-1] = 1 - w*l.cp
	l.d[n-1] = 0 - w*l.dp
}

// backSubstitute solves the eliminated system of l into m.
func backSubstitute(m []float64, l *thomasLane) {
	b, c, d := l.b, l.c, l.d
	n := len(b)
	mi := d[n-1] / b[n-1]
	m[n-1] = mi
	for i := n - 2; i >= 0; i-- {
		mi = (d[i] - c[i]*mi) / b[i]
		m[i] = mi
	}
}

// backSubstitutePair is backSubstitute on two systems in lockstep.
func backSubstitutePair(m1 []float64, l1 *thomasLane, m2 []float64, l2 *thomasLane) {
	b1, c1, d1 := l1.b, l1.c, l1.d
	b2, c2, d2 := l2.b, l2.c, l2.d
	i1, i2 := len(b1)-1, len(b2)-1
	mi1 := d1[i1] / b1[i1]
	mi2 := d2[i2] / b2[i2]
	m1[i1], m2[i2] = mi1, mi2
	for i1, i2 = i1-1, i2-1; i1 >= 0 && i2 >= 0; i1, i2 = i1-1, i2-1 {
		mi1 = (d1[i1] - c1[i1]*mi1) / b1[i1]
		mi2 = (d2[i2] - c2[i2]*mi2) / b2[i2]
		m1[i1], m2[i2] = mi1, mi2
	}
	for ; i1 >= 0; i1-- {
		mi1 = (d1[i1] - c1[i1]*mi1) / b1[i1]
		m1[i1] = mi1
	}
	for ; i2 >= 0; i2-- {
		mi2 = (d2[i2] - c2[i2]*mi2) / b2[i2]
		m2[i2] = mi2
	}
}

// SetExtrapolateZero makes out-of-range evaluations return 0 instead of
// clamping to the boundary value. Useful for probability densities whose
// support is exactly the knot range.
func (s *Spline) SetExtrapolateZero(zero bool) { s.extrapZero = zero }

// At evaluates the spline at t. Outside the knot range the value is
// either the nearest boundary value or 0, depending on
// SetExtrapolateZero.
func (s *Spline) At(t float64) float64 {
	n := len(s.x)
	if t <= s.x[0] {
		if t == s.x[0] { //reprovet:allow floateq exact knot hit returns the knot value; below-range behavior differs
			return s.y[0]
		}
		if s.extrapZero {
			return 0
		}
		return s.y[0]
	}
	if t >= s.x[n-1] {
		if t == s.x[n-1] { //reprovet:allow floateq exact knot hit returns the knot value; above-range behavior differs
			return s.y[n-1]
		}
		if s.extrapZero {
			return 0
		}
		return s.y[n-1]
	}
	// Binary search for the segment containing t.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.x[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s.segmentAt(lo, t)
}

// segmentAt evaluates the cubic on segment [x[lo], x[lo+1]] at t.
func (s *Spline) segmentAt(lo int, t float64) float64 {
	hi := lo + 1
	h := s.x[hi] - s.x[lo]
	A := (s.x[hi] - t) / h
	B := (t - s.x[lo]) / h
	return A*s.y[lo] + B*s.y[hi] +
		((A*A*A-A)*s.m[lo]+(B*B*B-B)*s.m[hi])*h*h/6
}

// Resample evaluates the spline on a uniform grid of n points spanning
// [lo, hi] inclusive.
func (s *Spline) Resample(lo, hi float64, n int) []float64 {
	return s.ResampleInto(make([]float64, n), lo, hi)
}

// ResampleInto is Resample writing into a caller-owned slice whose
// length selects the grid size. The evaluation points are visited in
// increasing order, so the containing segment is tracked with a forward
// walk instead of a per-point binary search; each point's value is
// bit-identical to At.
func (s *Spline) ResampleInto(out []float64, lo, hi float64) []float64 {
	n := len(out)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = s.At(lo)
		return out
	}
	step := (hi - lo) / float64(n-1)
	if step <= 0 { // non-increasing grid: fall back to direct evaluation
		for i := range out {
			out[i] = s.At(lo + float64(i)*step)
		}
		return out
	}
	nx := len(s.x)
	seg := 0
	for i := range out {
		t := lo + float64(i)*step
		switch {
		case t <= s.x[0]:
			if t == s.x[0] || !s.extrapZero { //reprovet:allow floateq exact knot hit returns the knot value; below-range behavior differs
				out[i] = s.y[0]
			} else {
				out[i] = 0
			}
		case t >= s.x[nx-1]:
			if t == s.x[nx-1] || !s.extrapZero { //reprovet:allow floateq exact knot hit returns the knot value; above-range behavior differs
				out[i] = s.y[nx-1]
			} else {
				out[i] = 0
			}
		default:
			// Same segment as At's binary search: the largest lo with
			// x[lo] <= t (t < x[nx-1] keeps seg < nx-1).
			for seg+1 < nx-1 && s.x[seg+1] <= t {
				seg++
			}
			out[i] = s.segmentAt(seg, t)
		}
	}
	return out
}
