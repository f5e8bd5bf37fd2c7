package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/resilience"
)

// TestMain runs the command instead of the tests when the test binary
// is started with EXPERIMENTS_MAIN=1, so a test can drive main's flag
// handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A negative -max-retries or -case-timeout fails before any figure
// runs. main used to copy both flags into the config after validating
// it, so a negative value ran as 0: no retries and no deadline.
func TestNegativeSupervisionFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string // a substring of the failure
	}{
		{[]string{"-max-retries", "-3"}, "retries"},
		{[]string{"-case-timeout", "-1s"}, "timeout"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-fig", "9"}, tc.flags...)...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: exit %v, want a failure naming %q:\n%s", tc.flags, err, tc.want, out)
		}
	}
}

// runFailedFigure runs the command with -keep-going, an injected error
// at every site and args, in a child process. Every case then fails,
// so the figure has nothing to render: the run must exit 1 (a panic
// exits 2) without writing a figure file, and failure_report.json must
// name failedCase.
func runFailedFigure(t *testing.T, failedCase string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	args = append(args, "-schedules", "4", "-keep-going", "-chaos", "error@", "-out", dir)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v: exit %v, want status 1:\n%s", args, err, out)
	}
	report, err := os.ReadFile(filepath.Join(dir, "failure_report.json"))
	if err != nil {
		t.Fatalf("%v: no failure report: %v\n%s", args, err, out)
	}
	if !strings.Contains(string(report), `"case": `+strconv.Quote(failedCase)) {
		t.Errorf("%v: failure report does not name case %q:\n%s", args, failedCase, report)
	}
	if figs, _ := filepath.Glob(filepath.Join(dir, "fig*")); len(figs) > 0 {
		t.Errorf("%v: wrote figure files %v", args, figs)
	}
}

// A case figure whose case failed under -keep-going used to panic on
// the nil result, after creating an empty figure file, and lose the
// failure report.
func TestKeepGoingFailedCaseFigure(t *testing.T) {
	runFailedFigure(t, experiment.Fig3Case(1).Name, "-fig", "3,9")
}

// A sweep whose every case failed under -keep-going used to stop on
// "stats: no matrices" and lose the failure report.
func TestKeepGoingFailedSweep(t *testing.T) {
	sweep, err := parseSweep("random", "10", "1.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sweep.Cases(1)
	if err != nil {
		t.Fatal(err)
	}
	runFailedFigure(t, specs[0].Name, "-fig", "sweep", "-families", "random", "-sweep-sizes", "10", "-sweep-uls", "1.1")
}

// A negative count flag is an error before any figure runs; 0 keeps the
// default and a positive count replaces it.
func TestApplyCounts(t *testing.T) {
	def := experiment.DefaultConfig()
	over := def
	over.Schedules, over.MCRealizations, over.MCBlockSize, over.Workers = 10, 500, 64, 3
	for _, tc := range []struct {
		schedules, mc, mcBlock, workers int
		want                            experiment.Config // unused on error
		wantErr                         bool
	}{
		{schedules: -7, wantErr: true},
		{mc: -5, wantErr: true},
		{mcBlock: -1, wantErr: true},
		{workers: -4, wantErr: true},
		{schedules: 10, mc: -1, wantErr: true},
		{want: def},
		{schedules: 10, mc: 500, mcBlock: 64, workers: 3, want: over},
	} {
		cfg := def
		err := applyCounts(&cfg, tc.schedules, tc.mc, tc.mcBlock, tc.workers)
		if tc.wantErr {
			if err == nil {
				t.Errorf("applyCounts(%d, %d, %d, %d) accepted", tc.schedules, tc.mc, tc.mcBlock, tc.workers)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(cfg, tc.want) {
			t.Errorf("applyCounts(%d, %d, %d, %d) = %+v, %v; want %+v", tc.schedules, tc.mc, tc.mcBlock, tc.workers, cfg, err, tc.want)
		}
	}
}

// -sweep-reps must be at least 1: a cell of zero or fewer instances is
// an error, not one instance.
func TestParseSweepReps(t *testing.T) {
	for reps, wantErr := range map[int]bool{-3: true, -1: true, 0: true, 1: false, 2: false} {
		s, err := parseSweep("random", "10", "1.1", reps)
		if (err != nil) != wantErr {
			t.Errorf("parseSweep(reps %d): %v, want error %v", reps, err, wantErr)
		}
		if err == nil && s.Reps != reps {
			t.Errorf("parseSweep(reps %d): Reps %d", reps, s.Reps)
		}
	}
}

func TestParseChaos(t *testing.T) {
	for spec, want := range map[string][]resilience.Fault{
		"panic@attempt0/eval/0": {{Site: "attempt0/eval/0", Kind: resilience.KindPanic}},
		" error@heur/HEFT , corrupt@ ": {
			{Site: "heur/HEFT", Kind: resilience.KindError},
			{Site: "", Kind: resilience.KindCorrupt},
		},
		"delay@attempt0/build:70s": {{Site: "attempt0/build", Kind: resilience.KindDelay, Delay: 70 * time.Second}},
		"delay@attempt0/build":     {{Site: "attempt0/build", Kind: resilience.KindDelay}},
		// Only the last colon starts the duration.
		"delay@a:b:5ms": {{Site: "a:b", Kind: resilience.KindDelay, Delay: 5 * time.Millisecond}},
		// Other kinds take no duration: the colon belongs to the site.
		"panic@x:3s": {{Site: "x:3s", Kind: resilience.KindPanic}},
		"delay@attempt0/build:70s,panic@attempt1/eval/0,corrupt@": {
			{Site: "attempt0/build", Kind: resilience.KindDelay, Delay: 70 * time.Second},
			{Site: "attempt1/eval/0", Kind: resilience.KindPanic},
			{Site: "", Kind: resilience.KindCorrupt},
		},
	} {
		got, err := parseChaos(spec)
		if err != nil {
			t.Errorf("parseChaos(%q): %v", spec, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseChaos(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, bad := range []string{
		"", " , ,", "panic", "boom@x", "Panic@x", "delay@x:soon", "delay@x:",
	} {
		if got, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) = %+v, want an error", bad, got)
		}
	}
}

// parseChaos reads a flag value: whatever it is given, it must not
// panic, every fault it accepts has a known kind, and only a delay
// takes a :dur suffix.
func FuzzParseChaos(f *testing.F) {
	for _, s := range []string{
		"panic@attempt0/eval/0", "delay@attempt0/build:3s,corrupt@", "error@x, delay@y:70s",
		"delay@a:b:1ms", "panic@x:3s", "boom@x", "noat", ",,", "delay@x:zz", "delay@x:-1s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := parseChaos(spec)
		if err != nil {
			return
		}
		if len(faults) == 0 {
			t.Fatalf("parseChaos(%q) accepted no faults", spec)
		}
		for _, fault := range faults {
			switch fault.Kind {
			case resilience.KindDelay:
			case resilience.KindPanic, resilience.KindError, resilience.KindCorrupt:
				if fault.Delay != 0 {
					t.Fatalf("parseChaos(%q): %s fault carries a duration %v", spec, fault.Kind, fault.Delay)
				}
			default:
				t.Fatalf("parseChaos(%q): unknown kind %v", spec, fault.Kind)
			}
		}
	})
}
