// Command benchguard compares benchmark pairs and fails loudly when a
// speedup regresses; in CI it holds the fast evaluation preset to its
// floor against the reference preset. It reads `go test -bench` output
// — either plain text or the `go test -json` stream CI archives as
// BENCH_*.json — from files or stdin, pairs every
// Benchmark<Name>Reference/... series with its Benchmark<Name>/...
// counterpart, prints a benchstat-style table, and exits non-zero when
// an enforced pair is less than -min-speedup times faster than its
// Reference series. A pair is enforced when its task count is at or
// above -at, or when it is the largest benchmarked size of its family —
// so a family whose slower leg is too slow to bench at -at scale is
// still guarded at the largest size it does run. A rename cannot
// silently disable the guard: finding no pairs at all, or a family
// whose series never complete a single pair (its counterpart series
// detached), is an error. A family may run extra sizes beyond its
// Reference series as long as at least one size pairs up.
//
// Usage:
//
//	go test -json -bench 'BenchmarkEvalAccuracyFast' -benchtime=1x -run='^$' . \
//	    | tee BENCH_accuracy.json | benchguard -series '^EvalAccuracyFast' -min-speedup 2 -at 10000
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line, e.g.
// "BenchmarkSchedulerHEFT/N=1000-8   123   987654 ns/op   12 B/op ..."
// (the -<cpus> suffix is absent on single-CPU runners).
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// pairKey identifies one compared series: the benchmark name with any
// "Reference" suffix stripped from its first path element, plus the
// subbenchmark suffix.
var nameParts = regexp.MustCompile(`^([^/]+?)(Reference)?(/.*)?$`)

// sizeRe extracts the task count from a "/N=..." subbenchmark suffix.
var sizeRe = regexp.MustCompile(`/N=(\d+)`)

type result struct {
	newNs, refNs   float64
	hasNew, hasRef bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	minSpeedup := flag.Float64("min-speedup", 2, "required compiled/reference speedup factor")
	at := flag.Int("at", 10000, "enforce all pairs with N >= this task count (each family's largest size is always enforced)")
	series := flag.String("series", "", "regexp restricting which benchmark families this run considers (empty = all); lets CI apply different thresholds to e.g. the Scheduler and Eval tables over the same artifacts")
	flag.Parse()

	var filter *regexp.Regexp
	if *series != "" {
		var err error
		if filter, err = regexp.Compile(*series); err != nil {
			log.Fatalf("bad -series: %v", err)
		}
	}

	results := make(map[string]*result)
	if flag.NArg() == 0 {
		parse(os.Stdin, results)
	} else {
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			parse(f, results)
			f.Close()
		}
	}
	filterSeries(results, filter)

	report, failed := evaluate(results, *minSpeedup, *at)
	if report == "" {
		log.Fatal("no old-vs-new benchmark pairs found (did a rename detach the *Reference series, or -series match nothing?)")
	}
	fmt.Print(report)
	if failed {
		log.Fatalf("speedup regression: compiled implementations must stay >= %.2fx faster than the reference", *minSpeedup)
	}
}

// filterSeries drops every series whose family name does not match the
// filter (nil keeps everything).
func filterSeries(results map[string]*result, filter *regexp.Regexp) {
	if filter == nil {
		return
	}
	for k := range results {
		if !filter.MatchString(familyOf(k)) {
			delete(results, k)
		}
	}
}

// evaluate renders the comparison table and reports whether any
// enforced pair missed minSpeedup. Enforced pairs are those with
// N >= at plus, per family (the key with its /N=... suffix stripped),
// the largest paired size — closing the hole where a family whose
// reference cannot run at `at` scale would never be checked. A family
// with series but not a single complete pair fails outright: that is
// what a rename that detached one side looks like. Returns "" when no
// complete pairs exist.
func evaluate(results map[string]*result, minSpeedup float64, at int) (string, bool) {
	keys := make([]string, 0, len(results))
	familyMax := make(map[string]int)
	familyPaired := make(map[string]bool)
	for k, r := range results {
		fam := familyOf(k)
		if _, seen := familyPaired[fam]; !seen {
			familyPaired[fam] = false
		}
		if !r.hasNew || !r.hasRef {
			continue
		}
		familyPaired[fam] = true
		keys = append(keys, k)
		if n, ok := sizeOf(k); ok && n > familyMax[fam] {
			familyMax[fam] = n
		}
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)

	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %15s %15s %9s\n", "benchmark", "reference ns/op", "compiled ns/op", "speedup")
	failed := false
	for _, k := range keys {
		r := results[k]
		speedup := r.refNs / r.newNs
		mark := ""
		n, ok := sizeOf(k)
		enforced := ok && (n >= at || n == familyMax[familyOf(k)])
		if enforced && speedup < minSpeedup {
			mark = fmt.Sprintf("  << FAIL (need >= %.1fx)", minSpeedup)
			failed = true
		}
		fmt.Fprintf(&b, "%-40s %15.0f %15.0f %8.2fx%s\n", k, r.refNs, r.newNs, speedup, mark)
	}
	fams := make([]string, 0, len(familyPaired))
	for fam, paired := range familyPaired {
		if !paired {
			fams = append(fams, fam)
		}
	}
	sort.Strings(fams)
	for _, fam := range fams {
		fmt.Fprintf(&b, "%-40s  << FAIL: no size pairs up (renamed counterpart series?)\n", fam)
		failed = true
	}
	return b.String(), failed
}

// familyOf strips the /N=<count> subbenchmark suffix of a pair key.
func familyOf(key string) string {
	return sizeRe.ReplaceAllString(key, "")
}

// parse consumes bench output. test2json splits a benchmark's name
// and its measurements into separate Output events (the name is
// flushed before the bench runs), so JSON input is first reassembled
// into plain text from the Output payloads and then scanned line by
// line; non-JSON input is scanned as-is.
func parse(r io.Reader, results map[string]*result) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var text strings.Builder
	for sc.Scan() {
		line := sc.Text()
		var ev struct{ Output string }
		if err := json.Unmarshal([]byte(line), &ev); err == nil {
			text.WriteString(ev.Output) // Output carries its own newlines
		} else {
			text.WriteString(line)
			text.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		parts := nameParts.FindStringSubmatch(m[1])
		key := parts[1] + parts[3]
		r := results[key]
		if r == nil {
			r = &result{}
			results[key] = r
		}
		if parts[2] == "Reference" {
			r.refNs, r.hasRef = ns, true
		} else {
			r.newNs, r.hasNew = ns, true
		}
	}
}

// sizeOf extracts the /N=<count> of a pair key.
func sizeOf(key string) (int, bool) {
	m := sizeRe.FindStringSubmatch(key)
	if m == nil {
		return 0, false
	}
	n, err := strconv.Atoi(m[1])
	return n, err == nil
}
