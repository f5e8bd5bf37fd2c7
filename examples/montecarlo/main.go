// Validate the analytic makespan-distribution evaluation against
// Monte-Carlo ground truth (the experiment behind the paper's Figs. 1
// and 2), comparing the classical and Spelde methods.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/makespan"
	"repro/internal/stats"
)

func main() {
	seed := flag.Int64("seed", 11, "base RNG seed; the schedule and Monte-Carlo streams derive from it")
	flag.Parse()

	scen, err := repro.NewGaussElimScenario(8, 4, 1.1, *seed)
	if err != nil {
		log.Fatal(err)
	}
	s := repro.RandomSchedule(scen, *seed+1)
	fmt.Printf("Gaussian elimination: %d tasks on %d processors, UL=%.2f, random schedule\n\n",
		scen.G.N(), scen.P.M, scen.UL)

	// Ground truth: 100 000 realizations, as in the paper.
	emp, err := repro.MonteCarlo(scen, s, 100000, *seed+2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Monte Carlo (100k):  mean %8.3f   std %7.4f   [q05 %.3f, q95 %.3f]\n",
		emp.Mean(), emp.StdDev(), emp.Quantile(0.05), emp.Quantile(0.95))

	for _, method := range []makespan.Method{repro.MethodClassic, repro.MethodSpelde} {
		rv, err := repro.MakespanDistribution(scen, s, method)
		if err != nil {
			log.Fatal(err)
		}
		ks := stats.KSAgainstEmpirical(rv, emp)
		lo, hi := stats.SupportUnion(rv, emp)
		cm := stats.CMArea(rv, emp, lo, hi, 1024)
		fmt.Printf("%-12s mean %8.3f   std %7.4f   KS %.4f   CM %.4f\n",
			method.String()+":", rv.Mean(), rv.StdDev(), ks, cm)
	}
	fmt.Println("\nThe paper keeps graphs of ≤100 tasks: KS ≤ ~0.1 leaves the")
	fmt.Println("metric correlations intact (see Fig. 1 and §V).")
}
