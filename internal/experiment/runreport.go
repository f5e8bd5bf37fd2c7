package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/resilience"
	"repro/internal/runner"
)

// AttemptReport records one supervised attempt of a case.
type AttemptReport struct {
	// Outcome is "ok", "panic", "timeout" or "error".
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// CaseReport is the fault history of one case: every attempt in
// order, and the final error when the case was abandoned.
type CaseReport struct {
	Case     string          `json:"case"`
	Attempts []AttemptReport `json:"attempts"`
	Err      string          `json:"err,omitempty"` // set only when the case permanently failed
}

// Failed reports whether the case was abandoned after all attempts.
func (c CaseReport) Failed() bool { return c.Err != "" }

// QuarantineReport records one cache entry that failed integrity
// verification and was moved aside for recompute.
type QuarantineReport struct {
	Key  string `json:"key"`
	Dest string `json:"dest"`
}

// RunReportData is the serializable snapshot of a RunReport: the
// structured failure summary of a sweep. Clean cases (first attempt
// succeeded, nothing injected) appear only in the counters, so the
// report stays proportional to the faults, not the sweep.
type RunReportData struct {
	CasesTotal  int                `json:"cases_total"`
	CasesClean  int                `json:"cases_clean"`
	Cases       []CaseReport       `json:"cases,omitempty"`       // non-clean cases, sorted by name
	Quarantines []QuarantineReport `json:"quarantines,omitempty"` // in detection order
	Injected    []resilience.Event `json:"injected,omitempty"`    // chaos injector firing log
}

// Retried counts cases that needed more than one attempt.
func (d RunReportData) Retried() int {
	n := 0
	for _, c := range d.Cases {
		if len(c.Attempts) > 1 {
			n++
		}
	}
	return n
}

// Failures returns the permanently failed cases.
func (d RunReportData) Failures() []CaseReport {
	var out []CaseReport
	for _, c := range d.Cases {
		if c.Failed() {
			out = append(out, c)
		}
	}
	return out
}

// RunReport accumulates the failure summary of a sweep. All methods
// are safe for concurrent use; attach one via RunOptions.Report to
// have RunCases fill it.
type RunReport struct {
	mu          sync.Mutex
	total       int
	clean       int
	cases       []CaseReport
	quarantines []QuarantineReport
	injector    *resilience.Injector
}

// NewRunReport returns an empty report.
func NewRunReport() *RunReport { return &RunReport{} }

// recordCase files one finished case. Clean single-attempt successes
// only bump the counters.
func (r *RunReport) recordCase(cr CaseReport) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if !cr.Failed() && len(cr.Attempts) == 1 {
		r.clean++
		return
	}
	r.cases = append(r.cases, cr)
}

// AttachCache subscribes the report to the cache's quarantine events,
// so corrupt-entry recoveries appear in the failure summary.
func (r *RunReport) AttachCache(c *runner.Cache) {
	c.OnQuarantine(func(key, dest string) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.quarantines = append(r.quarantines, QuarantineReport{Key: key, Dest: dest})
	})
}

// AttachInjector includes the chaos injector's firing log in
// snapshots, so the report enumerates every injected fault next to
// the attempts it caused.
func (r *RunReport) AttachInjector(in *resilience.Injector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.injector = in
}

// Eventful reports whether anything non-clean happened: a retry,
// failure, quarantine, or injected fault.
func (r *RunReport) Eventful() bool {
	d := r.Snapshot()
	return len(d.Cases) > 0 || len(d.Quarantines) > 0 || len(d.Injected) > 0
}

// Snapshot returns a copy of the report, cases sorted by name so the
// document is independent of completion order.
func (r *RunReport) Snapshot() RunReportData {
	if r == nil {
		return RunReportData{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := RunReportData{
		CasesTotal:  r.total,
		CasesClean:  r.clean,
		Cases:       append([]CaseReport(nil), r.cases...),
		Quarantines: append([]QuarantineReport(nil), r.quarantines...),
		Injected:    r.injector.Events(),
	}
	sort.Slice(d.Cases, func(i, j int) bool { return d.Cases[i].Case < d.Cases[j].Case })
	return d
}

// WriteRunReport renders the failure summary as text.
func WriteRunReport(w io.Writer, d RunReportData) {
	fmt.Fprintf(w, "# Failure report — %d case(s): %d clean, %d with faults (%d retried, %d failed)\n",
		d.CasesTotal, d.CasesClean, len(d.Cases), d.Retried(), len(d.Failures()))
	for _, c := range d.Cases {
		fmt.Fprintf(w, "case %s:\n", c.Case)
		for i, a := range c.Attempts {
			if a.Error != "" {
				fmt.Fprintf(w, "  attempt %d: %s (%s)\n", i+1, a.Outcome, a.Error)
			} else {
				fmt.Fprintf(w, "  attempt %d: %s\n", i+1, a.Outcome)
			}
		}
		if c.Failed() {
			fmt.Fprintf(w, "  FAILED: %s\n", c.Err)
		}
	}
	if len(d.Quarantines) > 0 {
		fmt.Fprintf(w, "quarantined cache entries (%d):\n", len(d.Quarantines))
		for _, q := range d.Quarantines {
			fmt.Fprintf(w, "  %s -> %s\n", q.Key, q.Dest)
		}
	}
	if len(d.Injected) > 0 {
		fmt.Fprintf(w, "injected faults (%d):\n", len(d.Injected))
		for _, ev := range d.Injected {
			fmt.Fprintf(w, "  %s at %s\n", ev.Kind, ev.Site)
		}
	}
}
