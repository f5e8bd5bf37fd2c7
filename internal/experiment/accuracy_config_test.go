package experiment

import (
	"context"
	"testing"

	"repro/internal/stochastic"
)

func TestConfigEvalAccuracyValue(t *testing.T) {
	cfg := DefaultConfig()
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		t.Fatal(err)
	}
	if acc != stochastic.AccuracyReference {
		t.Errorf("default config accuracy %+v, want reference", acc)
	}
	cfg.EvalAccuracy = "grid=48"
	if acc, _ = cfg.EvalAccuracyValue(); acc.GridSize != 48 || acc.WorkGrid != stochastic.DefaultMaxWorkGrid {
		t.Errorf("grid=48 resolves to %+v", acc)
	}
	cfg.EvalAccuracy = "coarse"
	if acc, _ = cfg.EvalAccuracyValue(); acc != stochastic.AccuracyCoarse {
		t.Errorf("coarse preset resolves to %+v", acc)
	}
	cfg.EvalAccuracy = "speedy"
	if _, err = cfg.EvalAccuracyValue(); err == nil {
		t.Error("invalid accuracy spelling must be an error")
	}
	if cfg.Validate() == nil {
		t.Error("Validate must reject an invalid spelling")
	}
}

// Accuracy spellings that resolve to the reference contract share one
// cache key with the empty default; every other accuracy has its own.
func TestEvalAccuracyCacheKeyStability(t *testing.T) {
	spec := CaseSpec{Name: "k", Family: RandomFamily, N: 10, M: 3, UL: 1.1, Seed: 7}
	base := DefaultConfig()
	ref, err := CaseCacheKey(spec, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, spelled := range []string{"reference", "grid=64", "grid=64,work=8192"} {
		cfg := base
		cfg.EvalAccuracy = spelled
		key, err := CaseCacheKey(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if key != ref {
			t.Errorf("EvalAccuracy=%q must emit the default's key", spelled)
		}
	}

	// Changing the density grid changes the key.
	bySpelling := base
	bySpelling.EvalAccuracy = "grid=48"
	spellKey, err := CaseCacheKey(spec, bySpelling)
	if err != nil {
		t.Fatal(err)
	}
	if spellKey == ref {
		t.Error("grid=48 must change the key")
	}

	// Tightened work grids change the key too.
	seen := map[string]string{"": ref}
	for _, preset := range []string{"fast", "coarse"} {
		cfg := base
		cfg.EvalAccuracy = preset
		key, err := CaseCacheKey(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for prev, prevKey := range seen {
			if key == prevKey {
				t.Errorf("accuracy %q and %q share a cache key", preset, prev)
			}
		}
		seen[preset] = key
	}

	bad := base
	bad.EvalAccuracy = "speedy"
	if _, err := CaseCacheKey(spec, bad); err == nil {
		t.Error("invalid accuracy spelling must be an error, not a silent namespace")
	}
}

// Every driver must reject an invalid accuracy spelling up front.
func TestInvalidAccuracyRejectedByDrivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedules = 2
	cfg.EvalAccuracy = "typo"
	if _, err := Fig1(cfg, []int{6}, 1); err == nil {
		t.Error("Fig1 must reject an invalid accuracy")
	}
	if _, err := Fig2(cfg); err == nil {
		t.Error("Fig2 must reject an invalid accuracy")
	}
	if _, err := Fig9(cfg, 0); err == nil {
		t.Error("Fig9 must reject an invalid accuracy")
	}
	if _, err := VariableUL(cfg); err == nil {
		t.Error("VariableUL must reject an invalid accuracy")
	}
	if _, err := OscillatingDurationsCase(cfg); err == nil {
		t.Error("OscillatingDurationsCase must reject an invalid accuracy")
	}
	spec := CaseSpec{Name: "k", Family: RandomFamily, N: 10, M: 3, UL: 1.1, Seed: 7}
	if _, err := RunCase(spec, cfg); err == nil {
		t.Error("RunCase must reject an invalid accuracy")
	}
	if _, err := RunCases(context.Background(), []CaseSpec{spec}, cfg, RunOptions{}); err == nil {
		t.Error("RunCases must reject an invalid accuracy")
	}
}
