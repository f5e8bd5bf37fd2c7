package experiment

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/stochastic"
)

// figs12 runs Figs. 1 and 2 at cfg and returns the bits of every row of
// Fig. 1 and every series of Fig. 2, with the number of Classic
// evaluations that classicAndTruth ran beside the Monte-Carlo truth.
func figs12(cfg Config) ([]uint64, int, error) {
	rows, beside, err := fig1(cfg, []int{10, 21, 33}, 2)
	if err != nil {
		return nil, 0, err
	}
	res, helped, err := fig2(cfg)
	if err != nil {
		return nil, 0, err
	}
	if helped {
		beside++
	}
	var bits []uint64
	for _, r := range rows {
		bits = append(bits, uint64(r.N), math.Float64bits(r.KS), math.Float64bits(r.CM))
	}
	for _, series := range [][]float64{res.X, res.Calculated, res.Empirical, {res.KS, res.CM}} {
		for _, v := range series {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits, beside, nil
}

// Figs. 1 and 2 run Classic on a helper while the Monte-Carlo kernel
// draws on the caller. Run free at GOMAXPROCS 2, at GOMAXPROCS 1, and
// in runner.Pool jobs while every worker holds its processor, they must
// write the same bits. The free run must start the helper, and the
// other two never.
func TestTruthBesideClassicKeepsEveryBit(t *testing.T) {
	const procs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := testConfig()
	cfg.MCRealizations = 2000
	cfg.MCSampler = stochastic.SamplerTable.String()

	free, beside, err := figs12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if beside == 0 {
		t.Fatal("free run: Classic never ran beside the Monte-Carlo truth")
	}

	runtime.GOMAXPROCS(1)
	serial, beside, err := figs12(cfg)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if beside != 0 {
		t.Errorf("GOMAXPROCS 1: Classic ran beside the truth %d times, want 0", beside)
	}
	if !slices.Equal(serial, free) {
		t.Error("GOMAXPROCS 1: Figs. 1–2 differ from the free run's bits")
	}

	pool := runner.NewPool(procs)
	defer pool.Close()
	var inside, done sync.WaitGroup
	inside.Add(procs)
	done.Add(procs)
	err = pool.Batch(context.Background(), procs, func(i int) error {
		inside.Done()
		inside.Wait()
		// No job returns, and so frees its processor, before every job
		// has finished its figures.
		defer done.Wait()
		defer done.Done()
		bits, beside, err := figs12(cfg)
		if err != nil {
			return err
		}
		if beside != 0 {
			t.Errorf("job %d: Classic ran beside the truth %d times with every processor held", i, beside)
		}
		if !slices.Equal(bits, free) {
			t.Errorf("job %d: Figs. 1–2 differ from the free run's bits", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
