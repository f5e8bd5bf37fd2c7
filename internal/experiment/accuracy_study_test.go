package experiment

import (
	"strings"
	"testing"
)

// -full must widen the accuracy study's draw: the per-family schedule
// count follows the configured budget (clamped), instead of the old
// hard-coded 8 that silently ignored paper-scale runs.
func TestStudySchedulesPerFamilyScalesWithBudget(t *testing.T) {
	for _, tc := range []struct {
		schedules, want int
	}{
		{0, 8},      // degenerate budgets keep the floor
		{150, 8},    // DefaultConfig: the historical draw
		{900, 50},   // scales at 1/18
		{1800, 64},  // clamped at the cap
		{10000, 64}, // PaperConfig (-full)
	} {
		cfg := DefaultConfig()
		cfg.Schedules = tc.schedules
		if got := studySchedulesPerFamily(cfg); got != tc.want {
			t.Errorf("Schedules=%d: per-family draw %d, want %d", tc.schedules, got, tc.want)
		}
	}
}

func syntheticStudy(withHeur bool) *AccuracyStudy {
	row := AccuracyRow{
		Accuracy: "coarse", GridSize: 16, WorkGrid: 512,
		MaxErr:  []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		MeanErr: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08},
	}
	st := &AccuracyStudy{Families: []string{"random"}, Schedules: 8}
	if withHeur {
		st.Heuristics = []string{"BIL", "HEFT"}
		row.HeurMaxErr = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8}
		row.HeurMeanErr = []float64{0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18}
	}
	st.Rows = []AccuracyRow{row}
	return st
}

// The renderer splits random- and heuristic-schedule errors into
// separate sections, and omits the heuristic sections for studies
// (e.g. decoded from pre-extension JSON) that lack those columns.
func TestWriteAccuracySections(t *testing.T) {
	var sb strings.Builder
	WriteAccuracy(&sb, syntheticStudy(true))
	out := sb.String()
	for _, want := range []string{
		"max relative error (random schedules)",
		"mean relative error (random schedules)",
		"max relative error (heuristic schedules)",
		"mean relative error (heuristic schedules)",
		"heuristic schedules per family: 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered study lacks %q", want)
		}
	}

	sb.Reset()
	WriteAccuracy(&sb, syntheticStudy(false))
	if out := sb.String(); strings.Contains(out, "(heuristic schedules)") {
		t.Error("legacy study without heuristic columns rendered heuristic sections")
	}
}
