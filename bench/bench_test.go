package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/stochastic"
)

// toyWorkloads have the shapes of the benchmark's workloads at a scale
// that runs in well under a second.
func toyWorkloads() []*workload {
	return []*workload{
		sweepWorkload("toy-grid", experiment.Sweep{
			NamePrefix: "sweep",
			Families:   []string{experiment.CholeskyFamily, experiment.RandomFamily},
			Sizes:      []int{10},
			ULs:        []float64{1.1},
			Reps:       2,
		}, 6, "", true),
		sweepWorkload("toy-sweep", experiment.Sweep{
			NamePrefix: "sweep",
			Families:   []string{experiment.FFTFamily},
			Sizes:      []int{100},
			ULs:        []float64{1.1},
		}, 0, "fast", false),
		fig1Workload("toy-fig1", []int{10, 30}, 1, 500),
		heuristicsWorkload("toy-heuristics", []heurCase{
			{Family: experiment.CholeskyFamily, N: 50, M: 3, UL: 1.1},
		}, stochastic.AccuracyFast),
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestTracedRunMatchesEntryPoint(t *testing.T) {
	ctx := context.Background()
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			it := iteration{seed: 3, workdir: t.TempDir(), workers: 2}
			plain, err := w.run(ctx, it, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(plain.doc); err != nil {
				t.Fatalf("check: %v", err)
			}
			tr := newTracer(it.workers)
			traced, err := w.run(ctx, it, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.doc, traced.doc) {
				t.Fatalf("traced document differs from the entry point's:\n%s\nvs\n%s", traced.doc, plain.doc)
			}
			for _, doc := range append(plain.same, traced.same...) {
				if !bytes.Equal(doc, plain.doc) {
					t.Fatal("resumed document differs")
				}
			}
			// Every busy nanosecond belongs to exactly one layer.
			p := tr.profile(time.Second)
			var sum float64
			for l, d := range p.self {
				if layer(l) != layerWait {
					sum += d.Seconds()
				}
			}
			if p.busy <= 0 || math.Abs(sum-p.busy.Seconds()) > 1e-9 {
				t.Fatalf("layer self times sum to %gs, busy time is %v", sum, p.busy)
			}
		})
	}
}

// TestPrintedMetrics checks that a run prints every metric of
// BENCHMARK.json once with its unit, the digest, the JSON line, and
// nothing else.
func TestPrintedMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	w := toyWorkloads()[0]
	for _, trace := range []bool{false, true} {
		o := options{seed: 1, trace: trace, workdir: t.TempDir(), workers: 2,
			spans: t.TempDir() + "/spans.json"}
		rep, err := measure(context.Background(), w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("trace=%v: %v", trace, rep.problems)
		}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		want := units[trace]
		seen := map[string]bool{}
		sc := bufio.NewScanner(&out)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if len(lines) != len(want)+2 {
			t.Fatalf("trace=%v: %d lines for %d metrics:\n%s", trace, len(lines), len(want), out.String())
		}
		for _, line := range lines[:len(want)] {
			f := strings.Fields(line)
			if len(f) != 3 {
				t.Fatalf("line %q is not `name value unit`", line)
			}
			if unit, ok := want[f[0]]; !ok || unit != f[2] || seen[f[0]] {
				t.Fatalf("trace=%v: unexpected or repeated metric line %q", trace, line)
			}
			seen[f[0]] = true
		}
		if !strings.HasPrefix(lines[len(want)], "output_sha256 ") {
			t.Fatalf("missing digest line, got %q", lines[len(want)])
		}
		var result struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&result); err != nil {
			t.Fatalf("result line: %v", err)
		}
		if !result.Correct || result.Attempted < 1 || result.Failed != 0 || len(result.Metrics) != len(want) {
			t.Fatalf("result line %s", lines[len(lines)-1])
		}
		for name, m := range result.Metrics {
			if want[name] != m.Unit {
				t.Fatalf("result metric %s has unit %q", name, m.Unit)
			}
		}
	}
}

func TestNames(t *testing.T) {
	b := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	var listed []string
	for _, w := range b.Workloads {
		check(w.Name)
		listed = append(listed, w.Name)
	}
	for _, m := range b.EndToEnd {
		check(m.Name)
	}
	for _, m := range b.PerLayer {
		check(m.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	sort.Strings(listed)
	sort.Strings(have)
	if strings.Join(listed, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, have)
	}
}
