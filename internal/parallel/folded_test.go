package parallel_test

import (
	"context"
	"fmt"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// TestFoldedHosts: a host runs the processes of one operator that share a
// slot as one process — one join, one destination per consumer host, one
// mark per host pair — and nothing of that shows in what a run computes or
// in the plan's counters. Every strategy on wide-bushy and left-linear runs
// on 1, 2 and 3 slots and on the plan's processor count, in memory, out of
// core and as a resident view: the result is the reference multiset (a
// view's after its population and after a round of deletions), and the
// counters other than Batches are the simulator's on every slot count. Every
// redistribution edge of the shell carries at most producer hosts × consumer
// hosts marks, and every consumer host waits for one per producer host.
func TestFoldedHosts(t *testing.T) {
	const rels, card, procs = 6, 300, 12
	db := testDB(t, rels, card)
	// The view's deletions: every relation's first tuples.
	const deleted = 25
	rest := func(leaf int) *relation.Relation {
		r := db.Relation(leaf).Clone()
		r.Tuples = r.Tuples[deleted:]
		return r
	}
	for _, shape := range []jointree.Shape{jointree.WideBushy, jointree.LeftLinear} {
		tree, err := jointree.BuildShape(shape, rels)
		if err != nil {
			t.Fatal(err)
		}
		want, after := core.Reference(db, tree), jointree.Reference(tree, rest)
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs}
			plan, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := core.Exec(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			props := sim.Stats.Counters
			props.Batches = 0
			for _, slots := range []int{1, 2, 3, plan.MaxProc() + 1} {
				name := fmt.Sprintf("%v/%v on %d slots", shape, kind, slots)
				for _, rt := range []string{"parallel", "spill"} {
					res, err := core.Exec(context.Background(), q, core.WithRuntime(rt), core.WithMaxProcs(slots), core.WithMemoryBudget(2<<10))
					if err != nil {
						t.Fatalf("%s, %s: %v", name, rt, err)
					}
					if diff := relation.DiffMultiset(res.Result, want); diff != "" {
						t.Fatalf("%s, %s: %s", name, rt, diff)
					}
					if rt == "spill" && res.Stats.SpillPartitions == 0 {
						t.Errorf("%s: the out-of-core run spilled nothing", name)
					}
					got := res.Stats.Counters
					got.Batches = 0
					if got != props {
						t.Errorf("%s, %s: counters %+v, the simulator's %+v", name, rt, got, props)
					}
				}

				edges, err := parallel.ShellMarks(plan, db.Relation, parallel.Config{MaxProcs: slots})
				if err != nil {
					t.Fatal(err)
				}
				folded := false
				for _, e := range edges {
					if e.Sent > e.Bound || !e.Awaited {
						t.Errorf("%s: edge %s→%s sends %d marks, bound %d; consumers await one per producer host: %v", name, e.From, e.To, e.Sent, e.Bound, e.Awaited)
					}
					folded = folded || e.Hosts != e.Procs
				}
				if (slots == 1 && !folded) || (slots == plan.MaxProc()+1 && folded) {
					t.Errorf("%s: a redistribution edge between folded hosts: %v", name, folded)
				}

				v, err := ivm.New(plan, db.Relation, parallel.Config{MaxProcs: slots}, ivm.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := v.Rows()
				if err != nil {
					t.Fatal(err)
				}
				if diff := relation.DiffMultiset(rows, want); diff != "" {
					t.Fatalf("%s, view: %s", name, diff)
				}
				var deltas []ivm.Delta
				for leaf := range rels {
					deltas = append(deltas, ivm.Delta{Rel: leaf, Delete: db.Relation(leaf).Tuples[:deleted]})
				}
				if _, err := v.Apply(context.Background(), deltas...); err != nil {
					t.Fatal(err)
				}
				if rows, err = v.Rows(); err != nil {
					t.Fatal(err)
				}
				if diff := relation.DiffMultiset(rows, after); diff != "" {
					t.Fatalf("%s, view after deletions: %s", name, diff)
				}
				v.Close()
			}
		}
	}
}
