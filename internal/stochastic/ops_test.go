package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// The oracle of Ops: the allocating Numeric operators that Ops mirrors
// op for op, kept here verbatim but for the convolution call. Numeric's
// Add, MaxWith and PDFOnGrid now run Ops, so these are the one other
// statement of the arithmetic.

// oracleAddAcc returns the distribution of rv+other assuming
// independence: the result density has acc.GridSize samples and the
// intermediate convolution grid is capped at acc.WorkGrid points.
func (rv *Numeric) oracleAddAcc(other *Numeric, acc EvalAccuracy) *Numeric {
	acc = acc.Canon()
	gridSize := acc.GridSize
	if rv.point {
		return other.Shift(rv.lo)
	}
	if other.point {
		return rv.Shift(other.lo)
	}
	lo := rv.lo + other.lo
	hi := rv.hi + other.hi
	h := math.Min(rv.Step(), other.Step())
	if w, wcap := hi-lo, float64(acc.WorkGrid); w/h > wcap {
		h = w / wcap
	}
	pa := rv.resampleStep(h)
	pb := other.resampleStep(h)
	conv := numeric.ConvolveInto(make([]float64, len(pa)+len(pb)-1), pa, pb, &numeric.ConvScratch{})
	for i := range conv {
		conv[i] *= h
		if conv[i] < 0 {
			conv[i] = 0
		}
	}
	// The convolution grid spans [lo, lo+(len-1)h]; resample onto the
	// requested grid over the exact support.
	convHi := lo + float64(len(conv)-1)*h
	xs := numeric.Linspace(lo, convHi, len(conv))
	sp, err := numeric.NewSpline(xs, conv)
	if err != nil {
		return NewPoint((lo + hi) / 2)
	}
	out := &Numeric{lo: lo, hi: hi, pdf: sp.Resample(lo, hi, gridSize)}
	out.clampNormalize()
	return out
}

// oracleMaxWith returns the distribution of max(rv, other) assuming
// independence: F(x) = F_X(x)·F_Y(x), densified by
// f = f_X·F_Y + F_X·f_Y on a gridSize-point grid. gridSize <= 0 selects
// DefaultGridSize.
func (rv *Numeric) oracleMaxWith(other *Numeric, gridSize int) *Numeric {
	if gridSize <= 0 {
		gridSize = DefaultGridSize
	}
	a, b := rv, other
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
			return a.Clone()
		case c >= a.hi:
			return NewPoint(c)
		default:
			// Truncate below c; the atom P(X<=c) is folded into the
			// first grid cell (a documented approximation — in the
			// scheduling pipeline constants only arise at 0, below any
			// duration support).
			atom := a.CDFAt(c)
			n := gridSize
			xs := numeric.Linspace(c, a.hi, n)
			pdf := make([]float64, n)
			for i, x := range xs {
				pdf[i] = a.PDFAt(x)
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
		return b.Clone()
	}
	if b.hi <= a.lo {
		return a.Clone()
	}
	lo := math.Max(a.lo, b.lo)
	hi := math.Max(a.hi, b.hi)
	xs := numeric.Linspace(lo, hi, gridSize)
	fa := a.pdfOnGrid(xs)
	fb := b.pdfOnGrid(xs)
	Fa := a.cdfOnGrid(xs)
	Fb := b.cdfOnGrid(xs)
	pdf := make([]float64, gridSize)
	for i := range xs {
		pdf[i] = fa[i]*Fb[i] + Fa[i]*fb[i]
	}
	out := &Numeric{lo: lo, hi: hi, pdf: pdf}
	out.clampNormalize()
	return out
}

// resampleStep resamples rv to the given step size, returning the grid
// values; guarantees at least 2 points.
func (rv *Numeric) resampleStep(h float64) []float64 {
	n := int(math.Round((rv.hi-rv.lo)/h)) + 1
	if n < 2 {
		n = 2
	}
	sp, err := numeric.NewSpline(rv.XGrid(), rv.pdf)
	if err != nil {
		return []float64{0, 0}
	}
	out := sp.Resample(rv.lo, rv.hi, n)
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		}
	}
	return out
}

// pdfOnGrid evaluates the density at each point of xs with a single
// spline construction (0 outside the support).
func (rv *Numeric) pdfOnGrid(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if rv.point {
		return out
	}
	sp, err := numeric.NewSpline(rv.XGrid(), rv.pdf)
	if err != nil {
		return out
	}
	for i, x := range xs {
		if x < rv.lo || x > rv.hi {
			continue
		}
		v := sp.At(x)
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// cdfOnGrid evaluates the CDF at each point of xs.
func (rv *Numeric) cdfOnGrid(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if rv.point {
		for i, x := range xs {
			if x >= rv.lo {
				out[i] = 1
			}
		}
		return out
	}
	h := rv.Step()
	cum := numeric.CumTrapezoid(rv.pdf, h)
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

// Shift returns the variable translated by c.
func (rv *Numeric) Shift(c float64) *Numeric {
	out := rv.Clone()
	out.lo += c
	out.hi += c
	return out
}

// randomRV builds a non-degenerate numeric variable with a random Beta
// density over a random support.
func randomRV(rng *rand.Rand, grid int) *Numeric {
	lo := rng.Float64() * 20
	width := 0.5 + rng.Float64()*30
	return FromDist(NewBetaUL(lo+1, 1+width/(lo+1)), grid)
}

// sameRV fails unless got and want have the same point flag and the
// same bits in their support ends and every density sample.
func sameRV(t *testing.T, label string, got, want *Numeric) {
	t.Helper()
	if got.point != want.point || math.Float64bits(got.lo) != math.Float64bits(want.lo) ||
		math.Float64bits(got.hi) != math.Float64bits(want.hi) || len(got.pdf) != len(want.pdf) {
		t.Fatalf("%s: point=%v [%v,%v] %d samples, want point=%v [%v,%v] %d samples",
			label, got.point, got.lo, got.hi, len(got.pdf), want.point, want.lo, want.hi, len(want.pdf))
	}
	for i := range want.pdf {
		if math.Float64bits(got.pdf[i]) != math.Float64bits(want.pdf[i]) {
			t.Fatalf("%s: pdf[%d] = %v, want %v", label, i, got.pdf[i], want.pdf[i])
		}
	}
}

// Ops.AddAcc and Ops.MaxAcc must be bit-identical to the oracle at the
// same grid size across the operand shapes the evaluators produce:
// generic pairs, wide-vs-narrow, point operands on either side,
// truncating and dominating constants, and disjoint supports. The
// workspace is reused throughout, so stale scratch from one case must
// never leak into the next.
func TestOpsBitIdenticalToNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := &Ops{}
	grids := []int{64, 128}
	for trial := 0; trial < 200; trial++ {
		grid := grids[trial%len(grids)]
		acc := EvalAccuracy{GridSize: grid}
		a := randomRV(rng, grid)
		b := randomRV(rng, grid)
		// Periodically widen a to push Add into the capped work-grid
		// regime (wide signal, narrow kernel).
		if trial%5 == 0 {
			a = a.oracleAddAcc(FromDist(Uniform{Lo: 0, Hi: 400 + rng.Float64()*400}, grid), acc)
		}
		sameRV(t, "add", ops.AddAcc(a, b, acc), a.oracleAddAcc(b, acc))
		sameRV(t, "max", ops.MaxAcc(a, b, acc), a.oracleMaxWith(b, grid))

		p := NewPoint(rng.Float64() * 50)
		sameRV(t, "add-point-l", ops.AddAcc(p, a, acc), p.oracleAddAcc(a, acc))
		sameRV(t, "add-point-r", ops.AddAcc(a, p, acc), a.oracleAddAcc(p, acc))
		sameRV(t, "max-point-l", ops.MaxAcc(p, a, acc), p.oracleMaxWith(a, grid))
		sameRV(t, "max-point-r", ops.MaxAcc(a, p, acc), a.oracleMaxWith(p, grid))

		// Truncating constant strictly inside the support.
		c := NewPoint(a.Lo() + (a.Hi()-a.Lo())*(0.1+0.8*rng.Float64()))
		sameRV(t, "max-trunc", ops.MaxAcc(a, c, acc), a.oracleMaxWith(c, grid))
		// Dominating and dominated constants.
		sameRV(t, "max-dom", ops.MaxAcc(a, NewPoint(a.Hi()+1), acc), a.oracleMaxWith(NewPoint(a.Hi()+1), grid))
		sameRV(t, "max-sub", ops.MaxAcc(a, NewPoint(a.Lo()-1), acc), a.oracleMaxWith(NewPoint(a.Lo()-1), grid))

		// Disjoint supports.
		far := FromDist(NewBetaUL(a.Hi()+10, 1.2), grid)
		sameRV(t, "max-disjoint", ops.MaxAcc(a, far, acc), a.oracleMaxWith(far, grid))
		sameRV(t, "max-disjoint-r", ops.MaxAcc(far, a, acc), far.oracleMaxWith(a, grid))

		// Two points.
		q := NewPoint(rng.Float64() * 50)
		sameRV(t, "max-pp", ops.MaxAcc(p, q, acc), p.oracleMaxWith(q, grid))
		sameRV(t, "add-pp", ops.AddAcc(p, q, acc), p.oracleAddAcc(q, acc))

		// PDFOnGrid, read past both ends of the support.
		xs := numeric.Linspace(a.Lo()-1, a.Hi()+1, 1025)
		for _, rv := range []*Numeric{a, p, ops.MaxAcc(a, b, acc)} {
			got, want := rv.PDFOnGrid(xs), rv.pdfOnGrid(xs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("PDFOnGrid(%v) = %v, want %v", xs[i], got[i], want[i])
				}
			}
		}
	}
}

// Recycled buffers must never alias a live result: interleave
// evaluations with recycling and re-check values computed earlier.
func TestOpsRecycleDoesNotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := &Ops{}
	acc := EvalAccuracy{GridSize: 64}
	a := randomRV(rng, 64)
	b := randomRV(rng, 64)
	keep := ops.AddAcc(a, b, acc)
	want := append([]float64(nil), keep.pdf...)

	// Produce and recycle a stream of temporaries.
	for i := 0; i < 50; i++ {
		tmp := ops.AddAcc(randomRV(rng, 64), randomRV(rng, 64), acc)
		tmp2 := ops.MaxAcc(tmp, randomRV(rng, 64), acc)
		ops.Recycle(tmp)
		ops.Recycle(tmp2)
	}
	for i, v := range want {
		if keep.pdf[i] != v {
			t.Fatalf("live result corrupted at %d after recycling", i)
		}
	}
	if got := ops.AddAcc(a, b, acc); got.Mean() != keep.Mean() {
		t.Fatal("Ops.AddAcc not deterministic after heavy recycling")
	}
}

// Steady-state Ops operations must not allocate once the scratch and
// free list are warm.
func TestOpsSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ops := &Ops{}
	acc := EvalAccuracy{GridSize: 64}
	a := randomRV(rng, 64)
	b := randomRV(rng, 64)
	// Warm up: seed the free list with enough result buffers.
	for i := 0; i < 4; i++ {
		ops.Recycle(ops.AddAcc(a, b, acc))
		ops.Recycle(ops.MaxAcc(a, b, acc))
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := ops.AddAcc(a, b, acc)
		m := ops.MaxAcc(r, b, acc)
		ops.Recycle(r)
		ops.Recycle(m)
	})
	// Two Numeric headers per iteration escape to the heap; the grids
	// themselves must all come from the free list.
	if allocs > 2 {
		t.Errorf("steady-state Ops allocates %g objects per Add+Max, want <= 2 headers", allocs)
	}
}

// AddPairAcc must equal two AddAcc calls — and the oracle — at every
// accuracy preset, for point operands in any of the
// four slots (the fallback) and for wide-by-narrow sums whose work grid
// hits the preset's cap. The workspace is shared across presets, so its
// free list mixes density buffers of different grid sizes.
func TestOpsAddPairMatchesTwoAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	paired := &Ops{}
	for _, name := range AccuracyNames() {
		acc, _ := AccuracyByName(name)
		grid := acc.GridSize
		single := &Ops{}
		for trial := 0; trial < 60; trial++ {
			rvs := make([]*Numeric, 4)
			for i := range rvs {
				rvs[i] = randomRV(rng, grid)
				switch rng.Intn(6) {
				case 0:
					rvs[i] = NewPoint(rng.Float64() * 50)
				case 1:
					// Wide operand: the sum's work grid reaches the cap.
					rvs[i] = rvs[i].AddAcc(FromDist(Uniform{Lo: 0, Hi: 2000 + rng.Float64()*4000}, grid), acc)
				}
			}
			got1, got2 := paired.AddPairAcc(rvs[0], rvs[1], rvs[2], rvs[3], acc)
			want1 := single.AddAcc(rvs[0], rvs[1], acc)
			want2 := single.AddAcc(rvs[2], rvs[3], acc)
			sameRV(t, name+" first", got1, want1)
			sameRV(t, name+" second", got2, want2)
			sameRV(t, name+" first vs oracle", got1, rvs[0].oracleAddAcc(rvs[1], acc))
			sameRV(t, name+" second vs oracle", got2, rvs[2].oracleAddAcc(rvs[3], acc))
			for _, rv := range []*Numeric{got1, got2, want1, want2} {
				if !rv.point {
					paired.Recycle(rv)
				}
			}
		}
	}
}

// FuzzOpsMatchesOracle holds Ops.AddAcc, MaxAcc and AddPairAcc to the
// oracle bit for bit on operands drawn from a seed: random supports and
// Beta or uniform densities, a grid size in [2, 129] and a work-grid
// cap in [2, 4097]. The shape selects what the second operand is
// against a density a: another density, a point on either side, a
// constant truncating a, dominating it or below it, a density with a
// disjoint support, or a wide density whose sum hits the work-grid
// cap. One workspace serves every operation of an input, so stale
// scratch and recycled buffers are exercised too.
func FuzzOpsMatchesOracle(f *testing.F) {
	for shape := uint8(0); shape < 8; shape++ {
		f.Add(int64(shape), uint8(62), uint16(8190), shape)
		f.Add(int64(100+shape), uint8(30), uint16(126), shape)
	}
	f.Add(int64(7), uint8(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, grid uint8, work uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		acc := EvalAccuracy{GridSize: 2 + int(grid)%128, WorkGrid: 2 + int(work)%4096}
		gridSize := acc.GridSize
		density := func(lo, width float64) *Numeric {
			if rng.Intn(2) == 0 {
				return FromDist(Uniform{Lo: lo, Hi: lo + width}, gridSize)
			}
			return FromDist(NewBetaUL(lo, 1+width/lo), gridSize)
		}
		a := density(0.1+rng.Float64()*50, 0.01+rng.Float64()*30)
		var b *Numeric
		switch shape % 8 {
		case 0:
			b = density(0.1+rng.Float64()*50, 0.01+rng.Float64()*30)
		case 1, 2:
			b = NewPoint(rng.Float64() * 50)
			if shape%8 == 1 {
				a, b = b, a
			}
		case 3:
			b = NewPoint(a.lo + (a.hi-a.lo)*rng.Float64())
		case 4:
			b = NewPoint(a.hi + rng.Float64()*10)
		case 5:
			b = NewPoint(a.lo - rng.Float64()*10)
		case 6:
			b = density(a.hi+rng.Float64()*10, 0.01+rng.Float64()*30)
		case 7:
			b = density(0.1+rng.Float64()*10, 500+rng.Float64()*5000)
		}
		c := density(0.1+rng.Float64()*50, 0.01+rng.Float64()*30)
		ops := &Ops{}
		sameRV(t, "AddAcc", ops.AddAcc(a, b, acc), a.oracleAddAcc(b, acc))
		sameRV(t, "AddAcc swapped", ops.AddAcc(b, a, acc), b.oracleAddAcc(a, acc))
		sameRV(t, "MaxAcc", ops.MaxAcc(a, b, acc), a.oracleMaxWith(b, gridSize))
		sameRV(t, "MaxAcc swapped", ops.MaxAcc(b, a, acc), b.oracleMaxWith(a, gridSize))
		sum1, sum2 := ops.AddPairAcc(a, b, c, a, acc)
		sameRV(t, "AddPairAcc first", sum1, a.oracleAddAcc(b, acc))
		sameRV(t, "AddPairAcc second", sum2, c.oracleAddAcc(a, acc))
		ops.Recycle(sum1)
		ops.Recycle(sum2)
		sameRV(t, "AddAcc after recycling", ops.AddAcc(c, b, acc), c.oracleAddAcc(b, acc))
	})
}
