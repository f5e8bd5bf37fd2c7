package stochastic

import (
	"math/rand"
	"testing"
)

// randomRV builds a non-degenerate numeric variable with a random Beta
// density over a random support.
func randomRV(rng *rand.Rand, grid int) *Numeric {
	lo := rng.Float64() * 20
	width := 0.5 + rng.Float64()*30
	return FromDist(NewBetaUL(lo+1, 1+width/(lo+1)), grid)
}

// sameRV asserts exact structural and bitwise equality.
func sameRV(t *testing.T, label string, got, want *Numeric) {
	t.Helper()
	if got.point != want.point || got.lo != want.lo || got.hi != want.hi {
		t.Fatalf("%s: header differs: point=%v lo=%v hi=%v, want point=%v lo=%v hi=%v",
			label, got.point, got.lo, got.hi, want.point, want.lo, want.hi)
	}
	if len(got.pdf) != len(want.pdf) {
		t.Fatalf("%s: grid %d != %d", label, len(got.pdf), len(want.pdf))
	}
	for i := range want.pdf {
		if got.pdf[i] != want.pdf[i] {
			t.Fatalf("%s: pdf diverges at %d: %g != %g", label, i, got.pdf[i], want.pdf[i])
		}
	}
}

// Ops.Add and Ops.Max must be bit-identical to Numeric.Add and
// Numeric.MaxWith across the operand shapes the evaluators produce:
// generic pairs, wide-vs-narrow (the overlap-add/direct regime), point
// operands on either side, truncating and dominating constants, and
// disjoint supports. The workspace is reused throughout, so stale
// scratch from one case must never leak into the next.
func TestOpsBitIdenticalToNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := &Ops{}
	grids := []int{64, 128}
	for trial := 0; trial < 200; trial++ {
		grid := grids[trial%len(grids)]
		a := randomRV(rng, grid)
		b := randomRV(rng, grid)
		// Periodically widen a to push Add into the capped work-grid
		// regime (wide signal, narrow kernel).
		if trial%5 == 0 {
			a = a.Add(FromDist(Uniform{Lo: 0, Hi: 400 + rng.Float64()*400}, grid), grid)
		}
		sameRV(t, "add", ops.Add(a, b, grid), a.Add(b, grid))
		sameRV(t, "max", ops.Max(a, b, grid), a.MaxWith(b, grid))

		p := NewPoint(rng.Float64() * 50)
		sameRV(t, "add-point-l", ops.Add(p, a, grid), p.Add(a, grid))
		sameRV(t, "add-point-r", ops.Add(a, p, grid), a.Add(p, grid))
		sameRV(t, "max-point-l", ops.Max(p, a, grid), p.MaxWith(a, grid))
		sameRV(t, "max-point-r", ops.Max(a, p, grid), a.MaxWith(p, grid))

		// Truncating constant strictly inside the support.
		c := NewPoint(a.Lo() + (a.Hi()-a.Lo())*(0.1+0.8*rng.Float64()))
		sameRV(t, "max-trunc", ops.Max(a, c, grid), a.MaxWith(c, grid))
		// Dominating and dominated constants.
		sameRV(t, "max-dom", ops.Max(a, NewPoint(a.Hi()+1), grid), a.MaxWith(NewPoint(a.Hi()+1), grid))
		sameRV(t, "max-sub", ops.Max(a, NewPoint(a.Lo()-1), grid), a.MaxWith(NewPoint(a.Lo()-1), grid))

		// Disjoint supports.
		far := FromDist(NewBetaUL(a.Hi()+10, 1.2), grid)
		sameRV(t, "max-disjoint", ops.Max(a, far, grid), a.MaxWith(far, grid))
		sameRV(t, "max-disjoint-r", ops.Max(far, a, grid), far.MaxWith(a, grid))

		// Two points.
		q := NewPoint(rng.Float64() * 50)
		sameRV(t, "max-pp", ops.Max(p, q, grid), p.MaxWith(q, grid))
		sameRV(t, "add-pp", ops.Add(p, q, grid), p.Add(q, grid))
	}
}

// Recycled buffers must never alias a live result: interleave
// evaluations with recycling and re-check values computed earlier.
func TestOpsRecycleDoesNotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := &Ops{}
	a := randomRV(rng, 64)
	b := randomRV(rng, 64)
	keep := ops.Add(a, b, 64)
	want := append([]float64(nil), keep.pdf...)

	// Produce and recycle a stream of temporaries.
	for i := 0; i < 50; i++ {
		tmp := ops.Add(randomRV(rng, 64), randomRV(rng, 64), 64)
		tmp2 := ops.Max(tmp, randomRV(rng, 64), 64)
		ops.Recycle(tmp)
		ops.Recycle(tmp2)
	}
	for i, v := range want {
		if keep.pdf[i] != v {
			t.Fatalf("live result corrupted at %d after recycling", i)
		}
	}
	if got := ops.Add(a, b, 64); got.Mean() != keep.Mean() {
		t.Fatal("Ops.Add not deterministic after heavy recycling")
	}
}

// Steady-state Ops operations must not allocate once the scratch and
// free list are warm.
func TestOpsSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ops := &Ops{}
	a := randomRV(rng, 64)
	b := randomRV(rng, 64)
	// Warm up: seed the free list with enough result buffers.
	for i := 0; i < 4; i++ {
		ops.Recycle(ops.Add(a, b, 64))
		ops.Recycle(ops.Max(a, b, 64))
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := ops.Add(a, b, 64)
		m := ops.Max(r, b, 64)
		ops.Recycle(r)
		ops.Recycle(m)
	})
	// Two Numeric headers per iteration escape to the heap; the grids
	// themselves must all come from the free list.
	if allocs > 2 {
		t.Errorf("steady-state Ops allocates %g objects per Add+Max, want <= 2 headers", allocs)
	}
}

// AddPairAcc must equal two AddAcc calls — and so two Numeric.AddAcc
// calls — at every accuracy preset, for point operands in any of the
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
			sameRV(t, name+" first vs Numeric", got1, rvs[0].AddAcc(rvs[1], acc))
			sameRV(t, name+" second vs Numeric", got2, rvs[2].AddAcc(rvs[3], acc))
			for _, rv := range []*Numeric{got1, got2, want1, want2} {
				if !rv.point {
					paired.Recycle(rv)
				}
			}
		}
	}
}
