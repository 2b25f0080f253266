// Command mjplan inspects parallel execution plans: it prints the XRA text
// of a plan, its structural overhead statistics, and (optionally) the
// processor-utilization diagram of its execution on the simulated machine.
//
// Usage:
//
//	mjplan -shape wide-bushy -strategy FP -procs 20 -card 5000
//	mjplan -example -strategy RD -procs 10 -diagram
//	mjplan -shape right-linear -strategy SP -procs 8 -mirror -diagram
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"multijoin"
	"multijoin/internal/diagram"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

func main() {
	shapeName := flag.String("shape", "wide-bushy", "query tree shape (left-linear, left-oriented-bushy, wide-bushy, right-oriented-bushy, right-linear)")
	strategyName := flag.String("strategy", "FP", "parallelization strategy (SP, SE, RD, FP)")
	procs := flag.Int("procs", 20, "number of processors")
	card := flag.Int("card", 5000, "tuples per relation")
	relations := flag.Int("relations", 10, "number of base relations")
	seed := flag.Int64("seed", 1995, "database seed")
	example := flag.Bool("example", false, "use the paper's Figure 2 example tree (5 relations)")
	mirror := flag.Bool("mirror", false, "mirror the tree (swap build/probe operands)")
	showDiagram := flag.Bool("diagram", false, "execute and render the utilization diagram")
	if err := run(shapeName, strategyName, procs, card, relations, seed, example, mirror, showDiagram); err != nil {
		fmt.Fprintf(os.Stderr, "mjplan: %v\n", err)
		os.Exit(1)
	}
}

func run(shapeName, strategyName *string, procs, card, relations *int, seed *int64, example, mirror, showDiagram *bool) error {
	flag.Parse()
	kind, err := strategy.Parse(*strategyName)
	if err != nil {
		return err
	}
	var tree *multijoin.Node
	if *example {
		tree = multijoin.ExampleTree()
		*relations = 5
	} else {
		shape, err := jointree.ParseShape(*shapeName)
		if err != nil {
			return err
		}
		if tree, err = multijoin.BuildTree(shape, *relations); err != nil {
			return err
		}
	}
	if *mirror {
		jointree.Mirror(tree)
	}
	db, err := multijoin.NewDatabase(*relations, *card, *seed)
	if err != nil {
		return err
	}
	params := multijoin.DefaultParams()
	params.RecordUtilization = *showDiagram
	q := multijoin.Query{DB: db, Tree: tree, Strategy: kind, Procs: *procs, Params: params}
	plan, err := q.Plan()
	if err != nil {
		return err
	}
	fmt.Printf("join tree: %v\n%s\n", tree, jointree.Render(tree))
	fmt.Print(multijoin.EncodePlan(plan))
	fmt.Printf("\nprocesses: %d   streams: %d\n", plan.NumProcesses(), plan.NumStreams())

	if !*showDiagram {
		return nil
	}
	res, err := multijoin.Exec(context.Background(), q)
	if err != nil {
		return err
	}
	fmt.Printf("\nresponse time: %.3fs   result tuples: %d\n",
		res.Time.Seconds(), res.Stats.ResultTuples)
	fmt.Printf("startup: %.3fs   handshakes: %.3fs   remote tuples: %d   local tuples: %d\n\n",
		res.Stats.StartupTime.Seconds(), res.Stats.HandshakeTime.Seconds(),
		res.Stats.TuplesMovedRemote, res.Stats.TuplesLocal)
	fmt.Print(diagram.Render(res.Procs, res.Time, 72))
	fmt.Print(diagram.Legend(res.Procs))
	fmt.Printf("average utilization: %.0f%%\n", 100*diagram.Utilization(res.Procs, res.Time))
	return nil
}
