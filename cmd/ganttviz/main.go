// Command ganttviz prints an ASCII Gantt chart of a schedule produced
// by one of the heuristics (mean-duration timing), useful for
// eyeballing what HEFT/BIL/HBMCT decided.
//
// Usage:
//
//	ganttviz [-graph FAMILY] [-n 10] [-m 3] [-ul 1.1]
//	         [-heuristic heft|bil|hbmct|sdheft|random] [-seed 1] [-width 100]
//
// -graph accepts any registered workload family (see
// experiment.FamilyNames).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/schedule"
)

// heuristicNames lists the -heuristic values: the names
// heuristics.ByName resolves, plus random.
const heuristicNames = "heft, bil, hbmct, sdheft or random"

func main() {
	log.SetFlags(0)
	log.SetPrefix("ganttviz: ")
	graph := flag.String("graph", "cholesky",
		"workload family: "+strings.Join(experiment.FamilyNames(), ", "))
	n := flag.Int("n", 10, "approximate task count")
	m := flag.Int("m", 3, "processor count")
	ul := flag.Float64("ul", 1.1, "uncertainty level")
	heuristic := flag.String("heuristic", "heft", heuristicNames)
	seed := flag.Int64("seed", 1, "RNG seed")
	width := flag.Int("width", 100, "chart width in characters")
	flag.Parse()

	scen, err := experiment.CaseSpec{
		Name: "gantt", Family: *graph, N: *n, M: *m, UL: *ul, Seed: *seed,
	}.BuildScenario()
	if err != nil {
		log.Fatal(err)
	}

	var s *schedule.Schedule
	if *heuristic == "random" {
		s = heuristics.RandomSchedule(scen, rand.New(rand.NewSource(*seed)))
	} else {
		fn := heuristics.ByName(*heuristic)
		if fn == nil {
			log.Fatalf("unknown heuristic %q (want %s)", *heuristic, heuristicNames)
		}
		res, err := fn(scen)
		if err != nil {
			log.Fatal(err)
		}
		s = res.Schedule
	}

	sim, err := schedule.NewSimulator(scen, s)
	if err != nil {
		log.Fatal(err)
	}
	tm := sim.MeanTiming()
	fmt.Printf("%s schedule of %s (n=%d, m=%d, UL=%g) — mean makespan %.4g\n\n",
		strings.ToUpper(*heuristic), *graph, scen.G.N(), *m, *ul, tm.Makespan)
	printGantt(scen.G, s, tm, *width)
}

// printGantt renders one row per processor; each task occupies a span
// proportional to its duration, labelled with its index.
func printGantt(g *dag.Graph, s *schedule.Schedule, tm schedule.Timing, width int) {
	if width < 20 {
		width = 20
	}
	scale := float64(width) / tm.Makespan
	for p := 0; p < s.M; p++ {
		row := make([]byte, width+1)
		for i := range row {
			row[i] = '.'
		}
		for _, t := range s.Order[p] {
			lo := int(tm.Start[t] * scale)
			hi := int(tm.Finish[t] * scale)
			if hi >= len(row) {
				hi = len(row) - 1
			}
			label := fmt.Sprintf("%d", int(t))
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
			for i, c := range []byte(label) {
				if lo+i <= hi && lo+i < len(row) {
					row[lo+i] = c
				}
			}
		}
		fmt.Printf("P%-2d |%s|\n", p, string(row))
	}
	fmt.Printf("     0%s%.4g\n", strings.Repeat(" ", width-len(fmt.Sprintf("%.4g", tm.Makespan))), tm.Makespan)
}
