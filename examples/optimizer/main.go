// Optimizer demonstrates phase 1 of the two-phase optimization (Section
// 1.2): dynamic programming over chain spans under the paper's cost
// function, in both the System R linear space and the full bushy space.
//
// On the paper's regular workload every tree costs the same — which is
// exactly why the paper can study parallelization in isolation. On a skewed
// catalog the spaces diverge and the bushy optimum wins, supporting the
// paper's closing advice to prefer bushy trees.
package main

import (
	"context"
	"fmt"
	"log"

	"multijoin"
)

func main() {
	// Regular catalog: 10 relations x 5000 tuples, 1:1 joins.
	uniform := multijoin.UniformCatalog(10, 5000)
	linTree, linCost, err := multijoin.Optimize(uniform, multijoin.LinearSpace)
	if err != nil {
		log.Fatal(err)
	}
	bushyTree, bushyCost, err := multijoin.Optimize(uniform, multijoin.BushySpace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("uniform catalog (the paper's workload):")
	fmt.Printf("  linear optimum cost %.0f units: %v\n", linCost, linTree)
	fmt.Printf("  bushy  optimum cost %.0f units: %v\n", bushyCost, bushyTree)
	fmt.Println("  => equal total cost; shape only matters for parallelization")

	// Skewed catalog: very selective predicates at both ends of the chain
	// and weak ones in the middle. A bushy plan shrinks both ends first and
	// joins two small intermediates; a linear plan has to drag a growing
	// intermediate across the weak middle predicates.
	skewed := multijoin.Catalog{
		Cards: []float64{10000, 10000, 10000, 10000, 10000, 10000},
		Sel:   []float64{1e-4, 5e-3, 5e-3, 5e-3, 1e-4},
	}
	linTree, linCost, err = multijoin.Optimize(skewed, multijoin.LinearSpace)
	if err != nil {
		log.Fatal(err)
	}
	bushyTree, bushyCost, err = multijoin.Optimize(skewed, multijoin.BushySpace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nskewed catalog (selective predicates at both chain ends):")
	fmt.Printf("  linear optimum cost %.0f units: %v\n", linCost, linTree)
	fmt.Printf("  bushy  optimum cost %.0f units: %v\n", bushyCost, bushyTree)
	fmt.Printf("  => bushy space saves %.1f%% total work\n", 100*(1-bushyCost/linCost))

	// Full two-phase pipeline: optimize, then parallelize with FP and run.
	db, err := multijoin.NewDatabase(10, 5000, 1995)
	if err != nil {
		log.Fatal(err)
	}
	tree, res, err := multijoin.TwoPhase(db, multijoin.BushySpace, multijoin.FP, 40, multijoin.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo-phase pipeline on the generated database:\n")
	fmt.Printf("  chosen tree: %v\n", tree)
	fmt.Printf("  FP on 40 processors: %.2fs response time, %d result tuples\n",
		res.Time.Seconds(), res.Stats.ResultTuples)

	// The same optimized tree through a session, this time on the goroutine
	// runtime: the Engine's shared processor pool takes the place of a
	// per-run WithMaxProcs, wall-clock time on the host's cores, verified
	// against the sequential reference.
	eng, err := multijoin.Open(db,
		multijoin.WithEngineRuntime("parallel"),
		multijoin.WithEngineProcs(multijoin.HostCap(16)))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	par, err := eng.Exec(context.Background(), multijoin.Query{
		Tree: tree, Strategy: multijoin.FP, Procs: 16,
	}, multijoin.WithVerify())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  same tree on the %s runtime: %v wall time, verified\n",
		par.Runtime, par.Time)
}
