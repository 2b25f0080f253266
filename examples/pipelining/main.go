// Pipelining demonstrates the difference between the simple (build-probe)
// hash-join and the pipelining (symmetric) hash-join of Section 2.3.2 at the
// algorithm level: the pipelining join emits result tuples long before its
// operands are complete, at the price of a second hash table, which it
// holds only while both operands are open. It then shows the system-level
// consequence: on a linear pipeline, FP's response time
// beats a strategy without inter-operator pipelining.
package main

import (
	"context"
	"fmt"
	"log"

	"multijoin"
	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
)

func main() {
	const n = 10000
	db, err := multijoin.NewDatabase(2, n, 42)
	if err != nil {
		log.Fatal(err)
	}
	lower, higher := db.Relation(0), db.Relation(1)
	spec := hashjoin.Spec{BuildIsLower: true}

	// Feed both joins the same interleaved batches and track when the
	// first and half of the results appear (measured in consumed tuples).
	fmt.Printf("join of two %d-tuple relations, batches of 100 tuples:\n\n", n)

	var lb, hb, out relation.Batch
	lb.AppendTuples(lower.Tuples)
	hb.AppendTuples(higher.Tuples)
	pipe := hashjoin.NewPipeliningSized(spec, n)
	var consumed, firstAt, halfAt int
	for i := 0; i < n; i += 100 {
		b, p := lb.View(i, i+100), hb.View(i, i+100)
		pipe.FromBuildSideBatchInto(&out, &b)
		pipe.FromProbeSideBatchInto(&out, &p)
		consumed += 200
		if firstAt == 0 && out.Len() > 0 {
			firstAt = consumed
		}
		if halfAt == 0 && out.Len() >= n/2 {
			halfAt = consumed
		}
	}
	bt, pt := pipe.Sizes()
	fmt.Printf("pipelining hash-join: first result after %d consumed tuples,\n", firstAt)
	fmt.Printf("  half the output after %d of %d; memory: %d + %d tuples (two tables, %d KiB)\n",
		halfAt, 2*n, bt, pt, pipe.MemBytes()>>10)
	// Once an operand has ended nothing can probe the other operand's table
	// again, and the join gives it back.
	pipe.CloseProbeSide()
	bt, pt = pipe.Sizes()
	fmt.Printf("  after the probe operand ends: %d + %d tuples (one table, %d KiB)\n\n",
		bt, pt, pipe.MemBytes()>>10)
	pipe.Release()

	// The simple join is the same state machine whose build phase consumes
	// the whole operand and closes it before probing: it never creates the
	// probe-side table.
	simple := hashjoin.NewPipeliningSized(spec, n)
	out.Reset()
	simple.FromBuildSideBatchInto(&out, &lb)
	simple.CloseBuildSide()
	first := hb.View(0, 100)
	simple.FromProbeSideBatchInto(&out, &first)
	bt, _ = simple.Sizes()
	fmt.Printf("simple hash-join: zero results until the build phase ends at %d consumed\n", n)
	fmt.Printf("  tuples; first probe batch then yields %d results; memory: %d tuples\n\n",
		out.Len(), bt)

	// Both algorithms agree exactly.
	a := hashjoin.Join(lower, higher, spec, false)
	b := hashjoin.Join(lower, higher, spec, true)
	fmt.Printf("results identical: %v (%d tuples)\n\n", relation.EqualMultiset(a, b), a.Card())

	// System-level effect on a 10-relation right-linear pipeline, through a
	// session: the Engine supplies default runtime and params, Engine.Exec
	// materializes the streamed result.
	big, err := multijoin.NewDatabase(10, 5000, 42)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := multijoin.Open(big)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	tree, _ := multijoin.BuildTree(multijoin.RightLinear, 10)
	for _, s := range []multijoin.Strategy{multijoin.SP, multijoin.FP} {
		res, err := eng.Exec(context.Background(), multijoin.Query{
			Tree: tree, Strategy: s, Procs: 60,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("right-linear chain, 60 procs, %v: %.2fs (%d processes)\n",
			s, res.Time.Seconds(), res.Stats.Processes)
	}
}
