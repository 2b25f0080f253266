package engine

import (
	"context"
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// TestTableAccountingCloses: the simulator holds a process's hash-table
// tuples until the process finishes (the paper's memory accounting), whatever
// the join does with its tables before then, so every processor's count is
// back to zero when a run ends and the peaks are the pinned ones. A driver
// that subtracted what the join still holds at the end, rather than what it
// added, would leave the tuples of a table given back early on the books.
func TestTableAccountingCloses(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 8, Cardinality: 300, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	base := func(leaf int) *relation.Relation { return db.Relation(leaf) }
	// Peak tuples per processor and machine-wide, per shape and strategy.
	pinned := map[jointree.Shape]map[strategy.Kind][2]int{
		jointree.LeftLinear: {strategy.SP: {39, 240}, strategy.SE: {39, 240}, strategy.RD: {39, 240}, strategy.FP: {556, 2356}},
		jointree.WideBushy:  {strategy.SP: {39, 300}, strategy.SE: {130, 629}, strategy.RD: {130, 544}, strategy.FP: {556, 1732}},
	}
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
		tree, err := jointree.BuildShape(shape, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range strategy.Kinds {
			plan, err := strategy.Plan(k, tree, strategy.Config{Procs: 12, Card: 300})
			if err != nil {
				t.Fatal(err)
			}
			e, err := newEngine(context.Background(), plan, base, nil, costmodel.Default(), &operator.Gather{Rel: relation.New("result", 0)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			for proc, n := range e.tableNow {
				if n != 0 {
					t.Errorf("%v/%v: processor %d ends the run holding %d table tuples", shape, k, proc, n)
				}
			}
			got := [2]int{res.Stats.PeakTableTuplesPerProc, res.Stats.PeakTableTuplesTotal}
			t.Logf("%v/%v: peak %d per processor, %d in total", shape, k, got[0], got[1])
			if want := pinned[shape][k]; got != want {
				t.Errorf("%v/%v: peak %d per processor, %d in total; pinned %d and %d", shape, k, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// TestScansReadThePlacement: a simulated run on a placement reads its scans'
// fragments and lent views from it — pointer-identical to what the placement
// holds, so the run copies no tuple of an already placed relation — and a
// second run reads the same ones.
func TestScansReadThePlacement(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 300, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	base := func(leaf int) *relation.Relation { return db.Relation(leaf) }
	tree, err := jointree.BuildShape(jointree.WideBushy, 6)
	if err != nil {
		t.Fatal(err)
	}
	place := db.Placement()
	params := costmodel.Default()
	for _, k := range strategy.Kinds {
		plan, err := strategy.Plan(k, tree, strategy.Config{Procs: 12, Card: 300})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			e, err := newEngine(context.Background(), plan, base, place, params, &operator.Gather{Rel: relation.New("result", 0)})
			if err != nil {
				t.Fatal(err)
			}
			for _, os := range e.ops {
				if os.Op.Kind != xra.OpScan {
					continue
				}
				frags := place.Fragments(base(os.Op.Leaf), os.Op.FragAttr, len(os.Op.Procs))
				views := place.Lend(base(os.Op.Leaf), os.Op.FragAttr, frags, params.BatchTuples)
				if &os.Frags[0] != &frags[0] || &os.views[0] != &views[0] {
					t.Fatalf("%v: scan %s does not read the placement's fragments and views", k, os.Op.ID)
				}
			}
			if _, err := e.run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
