// Command dagviz emits the Graphviz DOT rendering of any generated
// task graph, for inspecting the workloads the experiments run on.
//
// Usage:
//
//	dagviz [-graph cholesky|gausselim|random|join|fork|chain] [-n 10] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/graphgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dagviz: ")
	graph := flag.String("graph", "cholesky", "graph kind: cholesky, gausselim, random, join, fork, chain")
	n := flag.Int("n", 10, "size parameter (tasks for random/join/fork/chain, tiles for cholesky, matrix size for gausselim)")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var g *dag.Graph
	switch *graph {
	case "cholesky":
		g = graphgen.Cholesky(*n, 10, 20, rng)
	case "gausselim":
		g = graphgen.GaussElim(*n, 10, 20, rng)
	case "random":
		g, _ = graphgen.Random(*n, rng)
	case "join":
		g = graphgen.Join(*n, 1)
	case "fork":
		g = graphgen.Fork(*n, 1)
	case "chain":
		g = graphgen.Chain(*n, 1)
	default:
		log.Fatalf("unknown graph kind %q", *graph)
	}
	fmt.Print(g.DOT(fmt.Sprintf("%s-%d", *graph, *n), nil))
}
