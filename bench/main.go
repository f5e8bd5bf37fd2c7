// Command bench is the repository benchmark. One run measures one
// workload for a fixed time, prints every metric of BENCHMARK.json with
// its unit, one per line as "name value unit", then the sha256 of the
// result document as "output_sha256 <hex>", and last one JSON line with
// the verdict and the metrics. It is built and run by run.sh:
//
//	bash bench/run.sh --workload fig6-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the program's own entry point and reports
// the end-to-end metrics as medians over the repetitions. With --trace 1
// it alternates those repetitions with a traced run that does the
// same work layer by layer through public functions, and reports the
// per-layer metrics.
//
// Every repetition's document is checked: repetitions must agree, the
// traced run must agree with the entry point, a resume from the case
// cache must agree with the computed run, the document must pass the
// workload's range checks, and seeds listed in testdata/digests.json
// must reproduce the committed digest. On any failure the run prints
// "correct": false and exits with status 1.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// Set-up is repeated at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps times), and its median
// is reported, so that fast set-ups are timed over enough repetitions.
const (
	minSetupReps = 5
	maxSetupReps = 200
	minSetupTime = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	spans   string
	workdir string
	workers int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig6-grid, sweep-fast, fig1-mc or heuristics-large")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 20, "how long to repeat the workload")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans of the last traced repetition to this JSON file")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for case caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, spans: *spans,
		workdir: *workdir, workers: runtime.GOMAXPROCS(0)}
	rep, err := measure(context.Background(), w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "bench: incorrect output:", p)
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is the result of one run.
type report struct {
	metrics   []metric
	digest    string
	attempted int
	failed    int
	problems  []string
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// observe checks one repetition's documents against each other and
// against the earlier repetitions.
func (r *report) observe(w *workload, out outcome) {
	r.attempted += out.attempted
	r.failed += out.failed
	d := digest(out.doc)
	switch {
	case r.digest == "":
		r.digest = d
		if err := w.check(out.doc); err != nil {
			r.problems = append(r.problems, err.Error())
		}
	case d != r.digest:
		r.problems = append(r.problems, fmt.Sprintf("repetitions disagree: %s then %s", r.digest, d))
	}
	for _, doc := range out.same {
		if !bytes.Equal(doc, out.doc) {
			r.problems = append(r.problems, "the resumed document differs from the computed one")
		}
	}
}

func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// committedDigest returns the digest recorded for the workload at the
// seed, if any.
func committedDigest(workload string, seed int64) (string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false, fmt.Errorf("testdata/digests.json: %w", err)
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// sample is what one repetition cost.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
	peakRSS   float64
}

// repeat runs one repetition from a heap collected and returned to the
// operating system, with the peak resident set reset to the current
// one, so that each repetition's peak is its own.
func repeat(ctx context.Context, w *workload, it iteration, tr *tracer) (sample, outcome, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	cpu0, alloc0 := cpuTime(), allocBytes()
	t0 := time.Now()
	out, err := w.run(ctx, it, tr)
	s := sample{wall: time.Since(t0), cpu: cpuTime() - cpu0, alloc: allocBytes() - alloc0, peakRSS: peakRSS()}
	return s, out, err
}

// measure times the set-up, then repeats the workload until the next
// repetition would end past the deadline (at least once), and returns
// the metrics of the run.
func measure(ctx context.Context, w *workload, o options) (*report, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	setup, err := timeSetup(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	it := iteration{seed: o.seed, workdir: o.workdir, workers: o.workers}
	rep := &report{}
	var plain, traced []sample
	var profiles []profile
	var lastTracer *tracer
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(plain) == 0 || time.Now().Add(plain[len(plain)-1].wall+tracedWall(traced)).Before(deadline) {
		s, out, err := repeat(ctx, w, it, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, s)
		rep.observe(w, out)
		if !o.trace {
			continue
		}
		tr := newTracer(o.workers)
		s, out, err = repeat(ctx, w, it, tr)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		traced = append(traced, s)
		rep.observe(w, out)
		profiles = append(profiles, tr.profile(s.wall))
		lastTracer = tr
	}
	if want, ok, err := committedDigest(w.name, o.seed); err != nil {
		return nil, err
	} else if ok && want != rep.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("digest %s, committed %s", rep.digest, want))
	}
	wallOf := func(s sample) float64 { return s.wall.Seconds() }
	if !o.trace {
		rep.metrics = []metric{
			{"wall_s", median(plain, wallOf), "s"},
			{"setup_s", setup, "s"},
			{"cpu_s", median(plain, func(s sample) float64 { return s.cpu.Seconds() }), "s"},
			{"alloc_mb", median(plain, func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB"},
			{"peak_rss_mb", lowest(plain, func(s sample) float64 { return s.peakRSS / 1e6 }), "MB"},
		}
		return rep, nil
	}
	for _, p := range profiles[1:] {
		if countsOf(p) != countsOf(profiles[0]) {
			rep.problems = append(rep.problems, "per-layer counts differ between traced repetitions")
			break
		}
	}
	overhead := median(traced, wallOf)/median(plain, wallOf) - 1
	rep.metrics = perLayerMetrics(profiles, overhead)
	if o.spans != "" {
		if err := lastTracer.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedWall is the duration of the last traced repetition, 0 if none.
func tracedWall(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	return ss[len(ss)-1].wall
}

// timeSetup returns the median time of building the workload's inputs.
func timeSetup(w *workload, seed int64) (float64, error) {
	var ds []float64
	var total time.Duration
	for len(ds) < minSetupReps || (total < minSetupTime && len(ds) < maxSetupReps) {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	return quantile(ds, 0.5), nil
}

// lowest is used for the peak resident set: a repetition's peak is its
// footprint plus however far the heap overshot before the collector ran,
// which varies from one repetition to the next only upwards.
func lowest(ss []sample, f func(sample) float64) float64 {
	m := f(ss[0])
	for _, s := range ss[1:] {
		m = min(m, f(s))
	}
	return m
}

func median(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return quantile(xs, 0.5)
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// resetPeakRSS sets the peak resident set size (VmHWM) to the current
// one. Where the kernel refuses, peakRSS keeps reporting the peak since
// the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set size in bytes (VmHWM), or
// 0 where /proc is unavailable.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024
			}
		}
	}
	return 0
}

// print writes the metric lines, the digest line and the JSON result
// line.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	fmt.Fprintf(w, "output_sha256 %s\n", r.digest)
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
