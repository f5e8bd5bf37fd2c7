package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

func TestVariableULDropsCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("variable-UL correlation study is slow")
	}
	cfg := testConfig()
	cfg.Schedules = 50
	res, err := VariableUL(cfg)
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
	// The case carries the heuristic rows of Figs. 3–5.
	hs := heuristics.All()
	if len(res.Heuristics) != len(hs) {
		t.Fatalf("got %d heuristic rows, want %d", len(res.Heuristics), len(hs))
	}
	for i, h := range hs {
		if r := res.Heuristics[i]; r.Name != h.Name || r.Metrics.Makespan <= 0 {
			t.Errorf("heuristic row %d = %s E(M) %g, want %s with a positive makespan", i, r.Name, r.Metrics.Makespan, h.Name)
		}
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
