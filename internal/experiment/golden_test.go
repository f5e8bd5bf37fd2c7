package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resilience"
	"repro/internal/robustness"
)

// Golden-file tests for every report writer and machine-readable
// encoder: the rendered bytes are compared against testdata/, so any
// format drift — intended or not — shows up as a diff. Regenerate
// with:
//
//	go test ./internal/experiment -run TestGolden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updating() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func renderGolden(t *testing.T, name string, render func(io.Writer) error) {
	t.Helper()
	var b bytes.Buffer
	if err := render(&b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkGolden(t, name, b.Bytes())
}

// updating reports whether the test binary runs with -update. The flag
// is internal/testdigest's, which the digest tests of this package
// import: a test binary can define a flag only once.
func updating() bool {
	f := flag.Lookup("update")
	return f != nil && f.Value.String() == "true"
}

// fixtureMetrics builds a deterministic metric vector.
func fixtureMetrics(scale float64) robustness.Metrics {
	return robustness.Metrics{
		Makespan:    100 * scale,
		StdDev:      3.25 * scale,
		Entropy:     2.5 + scale,
		AvgSlack:    40 * scale,
		SlackStdDev: 7.125 * scale,
		Lateness:    1.75 * scale,
		AbsProb:     math.Min(0.5*scale, 1),
		RelProb:     math.Min(0.25*scale, 1),
	}
}

// fixtureCase builds a fully deterministic CaseResult, including NaN
// entries, so the golden files lock the rendering of every value
// class without running a (slow) real case.
func fixtureCase() *CaseResult {
	k := robustness.NumMetrics
	corr := make([][]float64, k)
	for i := range corr {
		corr[i] = make([]float64, k)
		for j := range corr[i] {
			switch {
			case i == j:
				corr[i][j] = 1
			default:
				// Symmetric, deterministic off-diagonal pattern in [-1, 1].
				corr[i][j] = math.Round(10000*math.Cos(float64((i+1)*(j+1)))) / 10000
			}
		}
	}
	// A degenerate column (e.g. slack on one processor) yields NaN.
	corr[0][3], corr[3][0] = math.NaN(), math.NaN()
	return &CaseResult{
		Spec: CaseSpec{Name: "golden-cholesky-10", Family: CholeskyFamily, N: 10, M: 3, UL: 1.01, Seed: 42},
		Metrics: []robustness.Metrics{
			fixtureMetrics(1), fixtureMetrics(1.5), fixtureMetrics(0.75),
		},
		Heuristics: []HeuristicResult{
			{Name: "HEFT", Metrics: fixtureMetrics(0.5)},
			{Name: "BIL", Metrics: fixtureMetrics(0.625)},
			{Name: "HBMCT", Metrics: fixtureMetrics(0.5625)},
		},
		Corr:               corr,
		RelByMakespanVsStd: 0.9981,
	}
}

func fixtureFig6() *Fig6Result {
	k := robustness.NumMetrics
	mean := make([][]float64, k)
	std := make([][]float64, k)
	for i := 0; i < k; i++ {
		mean[i] = make([]float64, k)
		std[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			if i == j {
				mean[i][j] = 1
				continue
			}
			mean[i][j] = math.Round(10000*math.Sin(float64((i+2)*(j+3)))) / 10000
			std[i][j] = math.Round(1000*math.Abs(math.Sin(float64(i*j+1)))) / 10000
		}
	}
	mean[0][3], mean[3][0] = math.NaN(), math.NaN()
	return &Fig6Result{
		Cases:          []*CaseResult{fixtureCase()},
		Mean:           mean,
		Std:            std,
		RelByMkspnMean: 0.998,
		RelByMkspnStd:  0.009,
	}
}

// fixtureReport covers every failure-report value class: a recovered
// panic, a recovery after timeouts, a permanent failure, a quarantined
// cache entry, and the chaos-injection log.
func fixtureReport() RunReportData {
	return RunReportData{
		CasesTotal: 5, CasesClean: 2,
		Cases: []CaseReport{
			{Case: "chaos-a", Attempts: []AttemptReport{
				{Outcome: "panic", Error: "panic: resilience: injected panic at case/chaos-a/attempt0/eval/3"},
				{Outcome: "ok"},
			}},
			{Case: "chaos-b", Attempts: []AttemptReport{
				{Outcome: "timeout", Error: "context deadline exceeded"},
				{Outcome: "timeout", Error: "context deadline exceeded"},
				{Outcome: "ok"},
			}},
			{Case: "chaos-c", Attempts: []AttemptReport{
				{Outcome: "error", Error: "experiment: case \"chaos-c\": boom"},
			}, Err: "experiment: case \"chaos-c\" failed after 1 attempt(s) (error): experiment: case \"chaos-c\": boom"},
		},
		Quarantines: []QuarantineReport{
			{Key: "deadbeef", Dest: "cache/quarantine/deadbeef.json"},
		},
		Injected: []resilience.Event{
			{Site: "case/chaos-a/attempt0/eval/3", Kind: "panic"},
			{Site: "case/chaos-b/attempt0/build", Kind: "delay"},
		},
	}
}

func TestGoldenTextReports(t *testing.T) {
	renderGolden(t, "case.txt", func(w io.Writer) error {
		res := fixtureCase()
		WriteCase(w, res)
		fmt.Fprintln(w)
		fmt.Fprint(w, SummarizeHeuristics(res))
		return nil
	})
	renderGolden(t, "fig1.txt", func(w io.Writer) error {
		WriteFig1(w, []Fig1Row{{N: 10, KS: 0.0123, CM: 0.456}, {N: 104, KS: 0.17, CM: 1.25}})
		return nil
	})
	renderGolden(t, "fig2.txt", func(w io.Writer) error {
		WriteFig2(w, &Fig2Result{
			X:          []float64{1, 2, 3},
			Calculated: []float64{0.125, 0.5, 0.25},
			Empirical:  []float64{0.1, 0.55, 0.2},
			KS:         0.17, CM: 0.9,
		})
		return nil
	})
	renderGolden(t, "fig6.txt", func(w io.Writer) error {
		WriteFig6(w, fixtureFig6())
		return nil
	})
	renderGolden(t, "fig7.txt", func(w io.Writer) error {
		WriteFig7(w, &Fig7Result{
			X:       []float64{0, 0.5, 1},
			Special: []float64{0.75, 1.5, 0.25},
			Normal:  []float64{0.5, 1.25, 0.5},
			Mean:    0.5, Std: 0.2,
		})
		return nil
	})
	renderGolden(t, "fig8.txt", func(w io.Writer) error {
		WriteFig8(w, []Fig8Row{
			{Sums: 0, KS: 0.09, CM: 0.01, CvMSquared: 0.002},
			{Sums: 10, KS: 0.005, CM: 0.004, CvMSquared: 1.5e-6},
		})
		return nil
	})
	renderGolden(t, "fig9.txt", func(w io.Writer) error {
		WriteFig9(w, []Fig9Row{
			{Name: "wide (1 task/proc)", Slack: 0, StdDev: 0.5, Makespan: 12.5},
			{Name: "chain (all on p0)", Slack: 0, StdDev: 2.25, Makespan: 85},
		})
		return nil
	})
	renderGolden(t, "failure_report.txt", func(w io.Writer) error {
		WriteRunReport(w, fixtureReport())
		return nil
	})
	renderGolden(t, "variableul.txt", func(w io.Writer) error {
		WriteVariableUL(w, &VariableULResult{
			ConstCorr: 0.875, VarCorr: 0.5, ULLo: 1, ULHi: 1.8,
			HEFTMakespan: 90, HEFTStd: 3, SDHEFTMakespan: 92, SDHEFTStd: 2.5, Lambda: 2,
			Sweep: []SDHEFTPoint{
				{Lambda: 0, Makespan: 90, Std: 3, Differs: false},
				{Lambda: 2, Makespan: 92, Std: 2.5, Differs: true},
			},
			NoisyHEFTMakespan: 88, NoisyHEFTStd: 9.5,
			NoisySDHEFTMakespan: 89, NoisySDHEFTStd: 4.25,
		})
		return nil
	})
}

func TestGoldenJSONReports(t *testing.T) {
	renderGolden(t, "case.json", func(w io.Writer) error {
		return WriteJSON(w, fixtureCase())
	})
	renderGolden(t, "fig6.json", func(w io.Writer) error {
		return WriteJSON(w, fixtureFig6())
	})
	renderGolden(t, "fig1.json", func(w io.Writer) error {
		return WriteJSON(w, []Fig1Row{{N: 10, KS: 0.0123, CM: 0.456}})
	})
	renderGolden(t, "fig9.json", func(w io.Writer) error {
		return WriteJSON(w, []Fig9Row{{Name: "wide", Slack: 0, StdDev: 0.5, Makespan: 12.5}})
	})
	renderGolden(t, "failure_report.json", func(w io.Writer) error {
		return WriteJSON(w, fixtureReport())
	})
	// NaN correlations (degenerate metric columns) must encode, not
	// abort the -json run.
	renderGolden(t, "variableul.json", func(w io.Writer) error {
		return WriteJSON(w, &VariableULResult{
			ConstCorr: 0.875, VarCorr: math.NaN(), ULLo: 1, ULHi: 1.8, Lambda: 2,
			Sweep: []SDHEFTPoint{{Lambda: 2, Makespan: 92, Std: 2.5, Differs: true}},
		})
	})
}

func TestGoldenCSVReports(t *testing.T) {
	renderGolden(t, "case_corr.csv", func(w io.Writer) error {
		return WriteCorrCSV(w, fixtureCase())
	})
	renderGolden(t, "fig6_matrix.csv", func(w io.Writer) error {
		return WriteFig6CSV(w, fixtureFig6())
	})
}
