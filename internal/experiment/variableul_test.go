package experiment

import (
	"math"
	"strings"
	"testing"
)

func TestVariableULDropsCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("variable-UL correlation study is slow")
	}
	cfg := testConfig()
	cfg.Schedules = 50
	res, err := VariableUL(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.ConstCorr) || math.IsNaN(res.VarCorr) {
		t.Fatal("NaN correlations")
	}
	// The paper's conjecture: variable UL weakens the makespan↔σ link.
	if res.ConstCorr < 0.5 {
		t.Errorf("constant-UL correlation %g suspiciously low", res.ConstCorr)
	}
	if res.VarCorr >= res.ConstCorr {
		t.Errorf("variable UL did not reduce the correlation: %g -> %g",
			res.ConstCorr, res.VarCorr)
	}
	// Both heuristics produce sane numbers.
	if res.HEFTMakespan <= 0 || res.SDHEFTMakespan <= 0 {
		t.Error("degenerate heuristic makespans")
	}
	if res.HEFTStd <= 0 || res.SDHEFTStd <= 0 {
		t.Error("degenerate heuristic sigmas")
	}
	var b strings.Builder
	WriteVariableUL(&b, res)
	if !strings.Contains(b.String(), "variable") {
		t.Error("report malformed")
	}
}

// VariableUL checks SDHEFT's weight before anything else: the
// config's accuracy is invalid, so an error naming lambda shows that
// nothing ran first. λ <= 0 used to be replaced by 1.
func TestVariableULRejectsLambda(t *testing.T) {
	cfg := testConfig()
	cfg.EvalAccuracy = "typo"
	for _, lambda := range []float64{-1, math.NaN(), math.Inf(1)} {
		res, err := VariableUL(cfg, lambda)
		if err == nil || !strings.Contains(err.Error(), "lambda") || res != nil {
			t.Errorf("VariableUL(lambda %v) = %v, %v; want a lambda error", lambda, res, err)
		}
	}
}

func TestOscillatingDurationsPreserveEquivalences(t *testing.T) {
	cfg := testConfig()
	cfg.Schedules = 60
	res, err := OscillatingDurationsCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 60 {
		t.Fatalf("got %d metric vectors", len(res.Metrics))
	}
	// The dispersion-metric equivalence class survives the swap to an
	// oscillating duration family (CLT at work).
	pairs := [][2]int{{1, 2}, {1, 5}, {2, 5}}
	for _, p := range pairs {
		r := res.Corr[p[0]][p[1]]
		if math.IsNaN(r) || r < 0.9 {
			t.Errorf("corr(%s, %s) = %.3f under oscillating durations, want > 0.9",
				metricShortNames[p[0]], metricShortNames[p[1]], r)
		}
	}
}
