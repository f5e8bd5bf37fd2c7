// Command experiments regenerates every table and figure of the
// paper's evaluation. By default it writes scaled-down results (the
// correlation structure is stable far below paper-scale sample
// counts); -full restores the paper's 10 000 schedules and 100 000
// realizations.
//
// The correlation cases (figs 3–6) run on a shared worker pool that
// streams every case×schedule evaluation as one job stream, so all
// cases progress concurrently; -workers bounds the pool. Results are
// deterministic for a fixed -seed at every worker count. -fig ul, osc
// and accuracy evaluate through the same loop, on a private pool of
// -workers workers, but bypass the case cache. With
// -resume (or an explicit -cache-dir) finished cases are stored on
// disk and an interrupted sweep picks up where it left off. -json
// switches the reports to machine-readable JSON (plus CSV matrices
// next to the case figures when -out is set).
//
// The first Ctrl-C cancels the case sweep and stops before the next
// figure; a second Ctrl-C kills the process immediately (the
// remaining figures compute without interruption points).
//
// Besides the paper's nine figures, two §VIII future-work experiments
// are available: -fig ul (variable per-task uncertainty levels) and
// -fig osc (oscillating non-Beta duration distributions) — plus
// -fig sweep, which crosses any set of registered workload families
// with -sweep-sizes × -sweep-uls × -sweep-reps and aggregates the
// correlation matrices like Fig. 6. An unachievable (family, size)
// pair fails the sweep up front instead of silently clamping the
// graph.
//
// -eval-accuracy selects the numeric evaluation accuracy for every
// figure: the default "reference" reproduces the paper's 64-point
// contract bit-for-bit, "fast" and "coarse" trade measured error for
// speed, and -fig accuracy regenerates the study quantifying that
// error per metric across all workload families and per schedule
// source (random and heuristic schedules discretize differently).
//
// Case execution is supervised: a panicking case fails with a typed
// error instead of crashing the run, -case-timeout bounds each
// attempt, and -max-retries re-runs failed cases from their case seed
// (delivered results stay byte-identical to a fault-free run).
// -keep-going completes a sweep past permanently failed cases; a
// figure left with no case to render still fails the run.
// Whenever anything non-clean happens — a retry, failure, or a cache
// entry that failed its checksum and was quarantined — a failure
// summary lands on stderr and, with -out, in failure_report.json,
// also when the run exits non-zero.
// -chaos arms deterministic fault injection (panics, delays, errors,
// cache corruption at named sites) to drill exactly those paths.
//
// Usage:
//
//	experiments [-fig 1|...|9|ul|osc|sweep|accuracy|all] [-full] [-out DIR]
//	            [-seed N] [-json] [-workers N] [-resume] [-cache-dir DIR]
//	            [-sampler exact|table] [-mc-block N]
//	            [-eval-accuracy reference|fast|coarse|grid=G[,work=W]]
//	            [-families A,B,...] [-sweep-sizes N,...] [-sweep-uls U,...]
//	            [-sweep-reps R]
//	            [-case-timeout D] [-max-retries N] [-keep-going]
//	            [-chaos SPEC]
//
// -sampler selects the Monte-Carlo realization engine: "exact" keeps
// the bit-stable reference stream, "table" switches the Beta samplers
// to precomputed inverse-CDF tables (several times faster; -full
// defaults to it since the 100 000-realization runs are
// sampling-bound).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/resilience"
	"repro/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	figFlag := flag.String("fig", "all", "figure to regenerate (1-9, ul, osc, sweep, accuracy, or all; sweep and accuracy are never part of all)")
	full := flag.Bool("full", false, "paper-scale sample counts (slow)")
	out := flag.String("out", "", "directory for output files (default stdout)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	schedules := flag.Int("schedules", 0, "override random-schedule count per case")
	mc := flag.Int("mc", 0, "override Monte-Carlo realization count")
	sampler := flag.String("sampler", "", "Monte-Carlo sampler mode: exact (bit-stable) or table (fast); default exact, table at -full")
	mcBlock := flag.Int("mc-block", 0, "Monte-Carlo kernel block size (realizations per batch; default 256)")
	evalAcc := flag.String("eval-accuracy", "", "evaluation accuracy: reference|fast|coarse or grid=G[,work=W] (default reference; fast/coarse trade measured error for speed)")
	workers := flag.Int("workers", 0, "worker-pool size for case evaluations (default GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "write JSON reports (figN.json; CSV matrices beside case figures when -out is set)")
	resume := flag.Bool("resume", false, "cache finished cases on disk and reuse them on rerun (default dir: .experiments-cache)")
	cacheDir := flag.String("cache-dir", "", "case-result cache directory (implies -resume)")
	caseTimeout := flag.Duration("case-timeout", 0, "deadline per case attempt (0 = none)")
	maxRetries := flag.Int("max-retries", 0, "retries per failed case (attempts = 1+N, deterministic jittered backoff)")
	keepGoing := flag.Bool("keep-going", false, "complete a sweep past permanently failed cases; failures are enumerated in the failure report instead of aborting siblings")
	chaos := flag.String("chaos", "", "comma-separated fault injections kind@site[:dur] with kind panic|delay|error|corrupt (e.g. 'panic@attempt0/eval/0,delay@attempt0/build:3s,corrupt@'); site is a substring of injection-site names, empty matches all")
	// The sweep defaults cover every family whose size grid reaches the
	// paper's ~{10,30,100} targets; strassen (25, 193, 1369, ... tasks)
	// is opt-in with matching -sweep-sizes.
	families := flag.String("families",
		"random,cholesky,gausselim,join,intree,outtree,seriesparallel,fft,stg",
		"comma-separated workload families for -fig sweep (registered: "+
			strings.Join(experiment.FamilyNames(), ", ")+")")
	sweepSizes := flag.String("sweep-sizes", "10,30,100", "comma-separated task counts for -fig sweep")
	sweepULs := flag.String("sweep-uls", "1.01,1.1", "comma-separated uncertainty levels for -fig sweep")
	sweepReps := flag.Int("sweep-reps", 1, "instances per (family, size, UL) cell for -fig sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the last figure")
	flag.Parse()

	// Profiles capture real sweep runs for perf work (go tool pprof).
	// flushProfiles runs on every exit path that goes through main —
	// normal return, figure errors and the graceful single Ctrl-C all
	// yield usable profiles; only the immediate double-Ctrl-C os.Exit
	// abandons them.
	var flushers []func()
	flushProfiles := func() {
		for i := len(flushers) - 1; i >= 0; i-- {
			flushers[i]()
		}
		flushers = nil
	}
	defer flushProfiles()
	fatalf := func(format string, args ...any) {
		flushProfiles()
		log.Fatalf(format, args...)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		flushers = append(flushers, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		})
	}
	if *memprofile != "" {
		flushers = append(flushers, func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		})
	}

	cfg := experiment.DefaultConfig()
	if *full {
		cfg = experiment.PaperConfig()
	}
	cfg.Seed = *seed
	if err := applyCounts(&cfg, *schedules, *mc, *mcBlock, *workers); err != nil {
		fatalf("%v", err)
	}
	if *sampler != "" {
		cfg.MCSampler = *sampler
	}
	if *evalAcc != "" {
		cfg.EvalAccuracy = *evalAcc
	}
	cfg.CaseTimeout = *caseTimeout
	cfg.MaxRetries = *maxRetries
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}

	// Fail on an unwritable output directory now, not after hours of
	// compute. MkdirAll alone is not enough: it succeeds on an
	// existing read-only directory, so probe with a real write.
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("%v", err)
		}
		probe, err := os.CreateTemp(*out, ".writable-*")
		if err != nil {
			fatalf("output directory not writable: %v", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}

	// First Ctrl-C cancels the sweep context; a second one exits
	// immediately, covering figures that have no internal cancellation
	// points (figs 1, 2, 7, 8, ul, osc). The buffered channel holds
	// both signals, so a rapid double Ctrl-C cannot be swallowed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		cancel()
		<-sigCh
		os.Exit(130)
	}()

	env := &runEnv{ctx: ctx, cfg: cfg, outDir: *out, json: *jsonOut}
	var err error
	if env.sweep, err = parseSweep(*families, *sweepSizes, *sweepULs, *sweepReps); err != nil {
		fatalf("%v", err)
	}

	// Every run carries a failure report; it is only written out when
	// something non-clean happened (a retry, failure, quarantined cache
	// entry, or injected fault).
	report := experiment.NewRunReport()
	env.opts.Report = report
	env.opts.KeepGoing = *keepGoing
	var injector *resilience.Injector
	if *chaos != "" {
		faults, err := parseChaos(*chaos)
		if err != nil {
			fatalf("%v", err)
		}
		injector = resilience.NewInjector(faults...)
		env.opts.Injector = injector
		report.AttachInjector(injector)
		log.Printf("chaos injection armed: %s", *chaos)
	}

	if *cacheDir == "" && *resume {
		*cacheDir = ".experiments-cache"
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		log.Printf("case cache at %s", cache.Dir())
		report.AttachCache(cache)
		if injector != nil {
			cache.SetCorruptor(injector.Corrupt)
		}
		env.opts.Cache = cache
	}

	// One pool for the whole invocation: with -fig all the cases of
	// consecutive figures share the same workers.
	pool := runner.NewPool(cfg.Workers)
	defer pool.Close()
	env.opts.Pool = pool

	// Surface everything non-clean: the text summary on stderr always,
	// plus failure_report.json next to the figures when -out is set,
	// also when a figure fails. A sweep that survived its faults
	// (retries, -keep-going failures, quarantined cache entries) still
	// exits 0 — the report is the contract for noticing what happened.
	writeReport := func() error {
		if !report.Eventful() {
			return nil
		}
		d := report.Snapshot()
		var sb strings.Builder
		experiment.WriteRunReport(&sb, d)
		for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
			log.Print(line)
		}
		if *out == "" {
			return nil
		}
		return env.writeFile("failure_report.json", func(w io.Writer) error {
			return experiment.WriteJSON(w, d)
		})
	}
	figFailed := func(format string, args ...any) {
		if err := writeReport(); err != nil {
			log.Printf("failure report: %v", err)
		}
		fatalf(format, args...)
	}

	figs := strings.Split(*figFlag, ",")
	if *figFlag == "all" {
		figs = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "ul", "osc"}
	}
	for _, f := range figs {
		if ctx.Err() != nil {
			figFailed("interrupted before figure %s", f)
		}
		if err := env.runFig(strings.TrimSpace(f)); err != nil {
			figFailed("fig %s: %v", f, err)
		}
	}
	if err := writeReport(); err != nil {
		fatalf("failure report: %v", err)
	}
}

// parseChaos assembles the -chaos fault list: comma-separated
// kind@site tokens, with an optional :duration suffix on delay faults.
func parseChaos(spec string) ([]resilience.Fault, error) {
	var faults []resilience.Fault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kind, site, ok := strings.Cut(tok, "@")
		if !ok {
			return nil, fmt.Errorf("-chaos: %q is not kind@site", tok)
		}
		f := resilience.Fault{Site: site}
		switch kind {
		case "panic":
			f.Kind = resilience.KindPanic
		case "delay":
			f.Kind = resilience.KindDelay
			if i := strings.LastIndex(site, ":"); i >= 0 {
				d, err := time.ParseDuration(site[i+1:])
				if err != nil {
					return nil, fmt.Errorf("-chaos: delay duration in %q: %v", tok, err)
				}
				f.Delay = d
				f.Site = site[:i]
			}
		case "error":
			f.Kind = resilience.KindError
		case "corrupt":
			f.Kind = resilience.KindCorrupt
		default:
			return nil, fmt.Errorf("-chaos: unknown fault kind %q in %q (want panic|delay|error|corrupt)", kind, tok)
		}
		faults = append(faults, f)
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("-chaos: no faults in %q", spec)
	}
	return faults, nil
}

// runEnv carries the per-invocation state shared by every figure.
type runEnv struct {
	ctx    context.Context
	cfg    experiment.Config
	outDir string
	json   bool
	opts   experiment.RunOptions
	sweep  experiment.Sweep
}

// applyCounts sets cfg's counts from the count flags: 0 keeps the
// default, and a negative count is an error.
func applyCounts(cfg *experiment.Config, schedules, mc, mcBlock, workers int) error {
	for _, f := range []struct {
		name  string
		value int
		field *int
	}{
		{"schedules", schedules, &cfg.Schedules},
		{"mc", mc, &cfg.MCRealizations},
		{"mc-block", mcBlock, &cfg.MCBlockSize},
		{"workers", workers, &cfg.Workers},
	} {
		if f.value < 0 {
			return fmt.Errorf("-%s %d: want 0 (the default) or a positive count", f.name, f.value)
		}
		if f.value > 0 {
			*f.field = f.value
		}
	}
	return nil
}

// parseSweep assembles the -fig sweep grid from the flag values.
func parseSweep(families, sizes, uls string, reps int) (experiment.Sweep, error) {
	s := experiment.Sweep{NamePrefix: "sweep", Reps: reps}
	if reps < 1 {
		return s, fmt.Errorf("-sweep-reps %d: want at least 1", reps)
	}
	for _, f := range strings.Split(families, ",") {
		if f = strings.TrimSpace(f); f != "" {
			s.Families = append(s.Families, f)
		}
	}
	for _, tok := range strings.Split(sizes, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return s, fmt.Errorf("-sweep-sizes: %v", err)
			}
			s.Sizes = append(s.Sizes, n)
		}
	}
	for _, tok := range strings.Split(uls, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			ul, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return s, fmt.Errorf("-sweep-uls: %v", err)
			}
			s.ULs = append(s.ULs, ul)
		}
	}
	return s, nil
}

// output opens the destination writer for a figure.
func (e *runEnv) output(name string) (io.Writer, func() error, error) {
	if e.outDir == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(filepath.Join(e.outDir, name))
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// writeFile renders one output file through render.
func (e *runEnv) writeFile(name string, render func(io.Writer) error) error {
	w, closeFn, err := e.output(name)
	if err != nil {
		return err
	}
	if err := render(w); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

// emit writes the figure's report: text by default, JSON with -json.
func (e *runEnv) emit(fig string, res any, text func(io.Writer) error) error {
	if e.json {
		return e.writeFile("fig"+fig+".json", func(w io.Writer) error {
			return experiment.WriteJSON(w, res)
		})
	}
	return e.writeFile("fig"+fig+".txt", text)
}

// emitWithCSV writes the figure's report plus — in JSON mode with an
// output directory — a companion CSV file rendered by csvRender.
func (e *runEnv) emitWithCSV(fig string, res any, text func(io.Writer) error, csvName string, csvRender func(io.Writer) error) error {
	err := e.emit(fig, res, text)
	if err != nil || !e.json || e.outDir == "" {
		return err
	}
	return e.writeFile(csvName, csvRender)
}

// emitCase writes a correlation-case figure, adding the Pearson-matrix
// CSV next to the JSON document when writing into a directory.
func (e *runEnv) emitCase(fig string, res *experiment.CaseResult) error {
	return e.emitWithCSV(fig, res, func(w io.Writer) error {
		experiment.WriteCase(w, res)
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.SummarizeHeuristics(res))
		return nil
	}, "fig"+fig+"_corr.csv", func(w io.Writer) error {
		return experiment.WriteCorrCSV(w, res)
	})
}

// progress returns the per-case progress logger of a sweep.
func (e *runEnv) progress() func(done, total int, name string) {
	return func(done, total int, name string) {
		log.Printf("  case %d/%d (%s)", done, total, name)
	}
}

// runCaseFig runs one correlation case through the orchestrator (so
// the shared pool and cache apply) and renders it. Under -keep-going a
// case that failed leaves nothing to render: that is an error, before
// any output file is opened.
func (e *runEnv) runCaseFig(fig string, spec experiment.CaseSpec) error {
	results, err := experiment.RunCases(e.ctx, []experiment.CaseSpec{spec}, e.cfg, e.opts)
	if err != nil {
		return err
	}
	if results[0] == nil {
		return fmt.Errorf("case %q failed (see the failure report)", spec.Name)
	}
	return e.emitCase(fig, results[0])
}

func (e *runEnv) runFig(fig string) error {
	cfg := e.cfg
	log.Printf("running figure %s ...", fig)
	switch fig {
	case "1":
		rows, err := experiment.Fig1(cfg, nil, 0)
		if err != nil {
			return err
		}
		return e.emit(fig, rows, func(w io.Writer) error {
			experiment.WriteFig1(w, rows)
			return nil
		})
	case "2":
		res, err := experiment.Fig2(cfg)
		if err != nil {
			return err
		}
		return e.emit(fig, res, func(w io.Writer) error {
			experiment.WriteFig2(w, res)
			return nil
		})
	case "3":
		return e.runCaseFig(fig, experiment.Fig3Case(cfg.Seed))
	case "4":
		return e.runCaseFig(fig, experiment.Fig4Case(cfg.Seed))
	case "5":
		return e.runCaseFig(fig, experiment.Fig5Case(cfg.Seed))
	case "6":
		opts := e.opts
		opts.Progress = e.progress()
		res, err := experiment.Fig6Run(e.ctx, cfg, opts)
		if err != nil {
			return err
		}
		return e.emitWithCSV(fig, res, func(w io.Writer) error {
			experiment.WriteFig6(w, res)
			return nil
		}, "fig6_matrix.csv", func(w io.Writer) error {
			return experiment.WriteFig6CSV(w, res)
		})
	case "7":
		res := experiment.Fig7(0)
		return e.emit(fig, res, func(w io.Writer) error {
			experiment.WriteFig7(w, res)
			return nil
		})
	case "8":
		rows := experiment.Fig8(0)
		return e.emit(fig, rows, func(w io.Writer) error {
			experiment.WriteFig8(w, rows)
			return nil
		})
	case "9":
		rows, err := experiment.Fig9(cfg, 0)
		if err != nil {
			return err
		}
		return e.emit(fig, rows, func(w io.Writer) error {
			experiment.WriteFig9(w, rows)
			return nil
		})
	case "ul":
		res, err := experiment.VariableUL(cfg)
		if err != nil {
			return err
		}
		return e.emit(fig, res, func(w io.Writer) error {
			experiment.WriteVariableUL(w, res)
			return nil
		})
	case "sweep":
		opts := e.opts
		opts.Progress = e.progress()
		// Fail on an infeasible grid before spending any compute.
		specs, err := e.sweep.Cases(cfg.Seed)
		if err != nil {
			return err
		}
		log.Printf("  sweep grid: %d cases (%s)", len(specs), strings.Join(e.sweep.Families, ", "))
		res, err := experiment.AggregateCases(e.ctx, specs, cfg, opts)
		if err != nil {
			return err
		}
		return e.emitWithCSV(fig, res, func(w io.Writer) error {
			experiment.WriteFig6(w, res)
			return nil
		}, "figsweep_matrix.csv", func(w io.Writer) error {
			return experiment.WriteFig6CSV(w, res)
		})
	case "accuracy":
		res, err := experiment.AccuracyStudyRun(cfg)
		if err != nil {
			return err
		}
		return e.emit(fig, res, func(w io.Writer) error {
			experiment.WriteAccuracy(w, res)
			return nil
		})
	case "osc":
		res, err := experiment.OscillatingDurationsCase(cfg)
		if err != nil {
			return err
		}
		return e.emitCase(fig, res)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}
