package stochastic

import (
	"math"
	"math/rand"
	"testing"
)

func TestAccuracyCanonAndPresets(t *testing.T) {
	if got := (EvalAccuracy{}).Canon(); got != AccuracyReference {
		t.Errorf("Canon(zero) = %+v, want AccuracyReference %+v", got, AccuracyReference)
	}
	if AccuracyReference.GridSize != DefaultGridSize || AccuracyReference.WorkGrid != DefaultMaxWorkGrid {
		t.Errorf("AccuracyReference %+v does not match the package defaults", AccuracyReference)
	}
	// Partially-defaulted values canonicalize field-wise.
	if got := (EvalAccuracy{GridSize: 48}).Canon(); got.WorkGrid != DefaultMaxWorkGrid || got.GridSize != 48 {
		t.Errorf("Canon(grid=48) = %+v", got)
	}
	for _, name := range AccuracyNames() {
		if _, ok := AccuracyByName(name); !ok {
			t.Errorf("AccuracyNames lists %q but AccuracyByName rejects it", name)
		}
	}
}

func TestAccuracyStringParseRoundTrip(t *testing.T) {
	cases := []EvalAccuracy{
		{}, AccuracyReference, AccuracyFast, AccuracyCoarse,
		{GridSize: 48}, {WorkGrid: 512}, {GridSize: 96, WorkGrid: 1024},
	}
	for _, acc := range cases {
		s := acc.String()
		back, err := ParseEvalAccuracy(s)
		if err != nil {
			t.Errorf("ParseEvalAccuracy(%q): %v", s, err)
			continue
		}
		if back != acc.Canon() {
			t.Errorf("round trip %+v -> %q -> %+v", acc, s, back)
		}
	}
	// Spellings with reordered or omitted fields.
	for spec, want := range map[string]EvalAccuracy{
		"":                  AccuracyReference,
		"  fast ":           AccuracyFast,
		"work=512":          {GridSize: DefaultGridSize, WorkGrid: 512},
		"work=256, grid=32": {GridSize: 32, WorkGrid: 256},
	} {
		got, err := ParseEvalAccuracy(spec)
		if err != nil {
			t.Errorf("ParseEvalAccuracy(%q): %v", spec, err)
		} else if got != want.Canon() {
			t.Errorf("ParseEvalAccuracy(%q) = %+v, want %+v", spec, got, want.Canon())
		}
	}
	// Malformed spellings must error, never fall back silently.
	for _, bad := range []string{
		"speedy", "grid", "grid=", "grid=abc", "grid=1", "work=-8",
		"grid=64;work=256", "step=4", "grid=64,work",
		"grid=64,grid=32", "work=256,work=8192",
	} {
		if acc, err := ParseEvalAccuracy(bad); err == nil {
			t.Errorf("ParseEvalAccuracy(%q) = %+v, want error", bad, acc)
		}
	}
}

// ParseEvalAccuracy reads flag values: whatever it is given, it must
// not panic, and whatever it accepts must be canonical and survive the
// trip through String unchanged.
func FuzzParseEvalAccuracy(f *testing.F) {
	for _, s := range []string{
		"", "reference", "  fast ", "coarse", "grid=48", "work=512",
		"work=256, grid=32", "grid=64,grid=96", "grid=+7", "speedy",
		"grid=1", "work=-8", "grid=64;work=256", "grid=64,work", "=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		acc, err := ParseEvalAccuracy(s)
		if err != nil {
			return
		}
		if acc != acc.Canon() {
			t.Fatalf("ParseEvalAccuracy(%q) = %+v, not canonical (%+v)", s, acc, acc.Canon())
		}
		back, err := ParseEvalAccuracy(acc.String())
		if err != nil || back != acc {
			t.Fatalf("ParseEvalAccuracy(%q) = %+v; its String %q parses to %+v, %v", s, acc, acc.String(), back, err)
		}
	})
}

// The accuracy-parameterized operators at the reference preset must be
// bit-identical to the fixed-grid originals — this is the contract that
// keeps every pre-EvalAccuracy golden and cache entry valid.
func TestAddAccReferenceBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ops := &Ops{}
	for trial := 0; trial < 10; trial++ {
		a := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), DefaultGridSize)
		b := FromDist(NewBetaUL(1+9*rng.Float64(), 1.05+rng.Float64()), DefaultGridSize)
		want := a.Add(b, DefaultGridSize)
		for name, got := range map[string]*Numeric{
			"Numeric.AddAcc(zero)": a.AddAcc(b, EvalAccuracy{}),
			"Numeric.AddAcc(ref)":  a.AddAcc(b, AccuracyReference),
			"Ops.AddAcc(ref)":      ops.AddAcc(a, b, AccuracyReference),
			"Ops.AddAcc(grid)":     ops.AddAcc(a, b, EvalAccuracy{GridSize: DefaultGridSize}),
		} {
			if got.Lo() != want.Lo() || got.Hi() != want.Hi() {
				t.Fatalf("trial %d %s: support [%g,%g], want [%g,%g]",
					trial, name, got.Lo(), got.Hi(), want.Lo(), want.Hi())
			}
			gp, wp := got.PDFGrid(), want.PDFGrid()
			if len(gp) != len(wp) {
				t.Fatalf("trial %d %s: grid %d, want %d", trial, name, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("trial %d %s: pdf[%d] = %g, want %g (bit-identity broken)",
						trial, name, i, gp[i], wp[i])
				}
			}
		}
	}
}

// sumAt folds k beta variables with AddAcc/MaxAcc at the given accuracy
// — a miniature of the classical evaluation recurrence.
func sumAt(rng *rand.Rand, mins, uls []float64, acc EvalAccuracy) *Numeric {
	acc = acc.Canon()
	out := FromDist(NewBetaUL(mins[0], uls[0]), acc.GridSize)
	for i := 1; i < len(mins); i++ {
		next := FromDist(NewBetaUL(mins[i], uls[i]), acc.GridSize)
		if i%3 == 2 {
			out = out.MaxAcc(out.AddAcc(next, acc), acc)
		} else {
			out = out.AddAcc(next, acc)
		}
	}
	return out
}

// Property: as the density grid grows toward the 64-point reference,
// the moment and quantile errors of a composite Add/Max pipeline
// converge (monotonically, up to 10% slack) toward zero.
func TestAccuracyGridConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const k = 12
	mins := make([]float64, k)
	uls := make([]float64, k)
	for i := range mins {
		mins[i] = 1 + 9*rng.Float64()
		uls[i] = 1.05 + rng.Float64()
	}
	ref := sumAt(rng, mins, uls, AccuracyReference)
	grids := []int{8, 16, 32, 48}
	errAt := func(g int) float64 {
		rv := sumAt(rng, mins, uls, EvalAccuracy{GridSize: g, WorkGrid: DefaultMaxWorkGrid})
		e := math.Abs(rv.Mean()-ref.Mean()) / ref.Mean()
		e = math.Max(e, math.Abs(rv.StdDev()-ref.StdDev())/(ref.StdDev()+1e-12))
		for _, q := range []float64{0.1, 0.5, 0.9} {
			e = math.Max(e, math.Abs(rv.Quantile(q)-ref.Quantile(q))/ref.Mean())
		}
		return e
	}
	prev := math.Inf(1)
	for _, g := range grids {
		e := errAt(g)
		t.Logf("grid %2d: max relative error %.3e", g, e)
		if e > 1.1*prev+1e-12 {
			t.Errorf("grid %d error %.3e worse than coarser grid's %.3e — not converging", g, e, prev)
		}
		prev = e
	}
	if prev > 0.02 {
		t.Errorf("grid 48 error %.3e, want < 2%% of the reference", prev)
	}
	// Tightening only the work-grid cap must also converge: the fast
	// preset's 256-point cap stays within 1% of reference on this
	// pipeline, and raising the cap back to the default recovers
	// bit-identity (covered above).
	fast := sumAt(rng, mins, uls, AccuracyFast)
	if e := math.Abs(fast.Mean()-ref.Mean()) / ref.Mean(); e > 0.01 {
		t.Errorf("fast preset mean error %.3e, want < 1%%", e)
	}
}

// Degenerate inputs must survive every preset: Dirac points stay exact
// under Add/Max at any grid, and zero-width mixtures never divide by
// zero.
func TestAccuracyDegenerateAtEveryPreset(t *testing.T) {
	for _, name := range AccuracyNames() {
		acc, _ := AccuracyByName(name)
		t.Run(name, func(t *testing.T) {
			a := NewPoint(3)
			b := NewPoint(4)
			if got := a.AddAcc(b, acc); !got.IsPoint() || got.Lo() != 7 {
				t.Errorf("Dirac(3)+Dirac(4) = %v, want point at 7", got)
			}
			if got := a.MaxAcc(b, acc); !got.IsPoint() || got.Lo() != 4 {
				t.Errorf("max(Dirac(3),Dirac(4)) = %v, want point at 4", got)
			}
			zero := NewPoint(0)
			if got := zero.AddAcc(zero, acc); !got.IsPoint() || got.Lo() != 0 {
				t.Errorf("Dirac(0)+Dirac(0) = %v, want point at 0", got)
			}
			// Dirac + continuous: the shift must be exact at any accuracy.
			c := FromDist(NewBetaUL(2, 1.5), acc.Canon().GridSize)
			got := c.AddAcc(a, acc)
			if math.Abs(got.Mean()-(c.Mean()+3)) > 1e-9*got.Mean() {
				t.Errorf("beta+Dirac(3) mean %g, want %g", got.Mean(), c.Mean()+3)
			}
		})
	}
}
