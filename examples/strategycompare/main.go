// Strategycompare reproduces the decision matrix behind the paper's
// Section 5 guidelines: it measures every strategy on every query-tree
// shape at a small and a large machine size and prints which strategy wins
// where — SP for few processors, FP for many, SE on wide bushy trees, RD on
// right-oriented trees.
package main

import (
	"context"
	"fmt"
	"log"

	"multijoin"
)

func main() {
	ctx := context.Background()
	db, err := multijoin.NewDatabase(10, 5000, 1995)
	if err != nil {
		log.Fatal(err)
	}
	params := multijoin.DefaultParams()

	// One session serves the whole decision matrix; the simulator section
	// uses it with the default "sim" runtime, the wall-clock section below
	// switches per query.
	eng, err := multijoin.Open(db,
		multijoin.WithEngineParams(params),
		multijoin.WithEngineProcs(multijoin.HostCap(16)))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	for _, procs := range []int{20, 80} {
		fmt.Printf("===== %d processors =====\n", procs)
		fmt.Printf("%-22s", "shape")
		for _, s := range multijoin.Strategies {
			fmt.Printf("%10v", s)
		}
		fmt.Printf("%10s\n", "winner")
		for _, shape := range multijoin.Shapes {
			tree, err := multijoin.BuildTree(shape, 10)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22v", shape)
			bestSec, bestStrat := -1.0, multijoin.SP
			for _, s := range multijoin.Strategies {
				res, err := eng.Exec(ctx, multijoin.Query{
					Tree: tree, Strategy: s, Procs: procs,
				})
				if err != nil {
					log.Fatal(err)
				}
				sec := res.Time.Seconds()
				fmt.Printf("%10.2f", sec)
				if bestSec < 0 || sec < bestSec {
					bestSec, bestStrat = sec, s
				}
			}
			fmt.Printf("%10v\n", bestStrat)
		}
		fmt.Println()
	}

	// Mirroring (Section 5): RD on a left-linear tree degenerates to SP,
	// but mirroring the tree is free and makes it right-linear.
	tree, _ := multijoin.BuildTree(multijoin.LeftLinear, 10)
	left, err := eng.Exec(ctx, multijoin.Query{Tree: tree, Strategy: multijoin.RD, Procs: 80})
	if err != nil {
		log.Fatal(err)
	}
	mirrored, _ := multijoin.BuildTree(multijoin.RightLinear, 10)
	right, err := eng.Exec(ctx, multijoin.Query{Tree: mirrored, Strategy: multijoin.RD, Procs: 80})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RD on left-linear: %.2fs; after mirroring to right-linear: %.2fs\n",
		left.Time.Seconds(), right.Time.Seconds())

	// The same comparison on real cores: the goroutine runtime executes the
	// identical plans with one worker goroutine per operator and processor
	// slot (hosting the operator's processes on that slot) and reports
	// wall-clock time. Results are verified against the sequential
	// reference on every run.
	// Plans are generated for 16 processors (RD and FP need one processor
	// per concurrently executing join); the engine's shared processor pool
	// (WithEngineProcs above) caps actual concurrency at the host's real
	// core count.
	procs := 16
	maxProcs := multijoin.HostCap(procs)
	fmt.Printf("\n===== goroutine runtime: %d-processor plans on %d cores, wall-clock ms =====\n", procs, maxProcs)
	fmt.Printf("%-22s", "shape")
	for _, s := range multijoin.Strategies {
		fmt.Printf("%10v", s)
	}
	fmt.Printf("%10s\n", "winner")
	for _, shape := range multijoin.Shapes {
		tree, err := multijoin.BuildTree(shape, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22v", shape)
		bestMS, bestStrat := -1.0, multijoin.SP
		for _, s := range multijoin.Strategies {
			res, err := eng.Exec(ctx, multijoin.Query{
				Tree: tree, Strategy: s, Procs: procs,
			}, multijoin.WithRuntime("parallel"), multijoin.WithVerify())
			if err != nil {
				log.Fatal(err)
			}
			ms := float64(res.Time.Microseconds()) / 1000
			fmt.Printf("%10.1f", ms)
			if bestMS < 0 || ms < bestMS {
				bestMS, bestStrat = ms, s
			}
		}
		fmt.Printf("%10v\n", bestStrat)
	}
}
