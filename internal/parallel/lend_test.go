package parallel

import (
	"context"
	"errors"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// cancelSink cancels its run at the first result batch it is pushed.
type cancelSink struct{ cancel context.CancelFunc }

func (s cancelSink) Push(_ context.Context, _ *relation.Batch, release func()) error {
	s.cancel()
	release()
	return nil
}

// placementKey is one fragmentation a plan's scans read.
type placementKey struct {
	rel    *relation.Relation
	attr   relation.Attr
	degree int
}

// placedFrags returns the fragmentations the plans' scans read from place,
// by key.
func placedFrags(place *relation.Placement, base func(int) *relation.Relation, plans []*xra.Plan) map[placementKey][]relation.Batch {
	frags := make(map[placementKey][]relation.Batch)
	for _, plan := range plans {
		for _, op := range plan.Ops {
			if op.Kind == xra.OpScan {
				key := placementKey{base(op.Leaf), op.FragAttr, len(op.Procs)}
				frags[key] = place.Fragments(key.rel, key.attr, key.degree)
			}
		}
	}
	return frags
}

func fragSum(frags []relation.Batch) uint64 {
	var sum uint64
	for i := range frags {
		for r := 0; r < frags[i].Len(); r++ {
			t := frags[i].Tuple(r)
			sum = relation.CombineChecks(sum, relation.CombineChecks(uint64(t.Unique1)^uint64(t.Unique2)<<1, t.Check))
		}
	}
	return sum
}

// TestLentPlacementSurvivesRuns is the pool discipline of lent views on the
// placement a database keeps between queries: one ProcPool runs every
// strategy twice on the database's placement, with a run cancelled mid-scan
// between the rounds. Scans lend the placed fragments' views to the joins,
// which hold, apply and return them like pooled batches, and a cancelled
// delivery hands its view back to a pool. None of that may write a fragment
// or place one again: afterwards the placement serves the very fragments it
// served before, checksum-identical to what they held before and to a fresh
// fragmentation of the relations, and every second run matches the
// reference. Under -tags pooldebug (make pooldebug) a view taken into a pool
// would be poisoned, which both checks see.
func TestLentPlacementSurvivesRuns(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.LeftLinear, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := jointree.Reference(tree, db.Relation)
	p := NewProcPool(4)
	defer p.Close()
	cfg := Config{Pool: p, Placement: db.Placement()}
	var plans []*xra.Plan
	for _, kind := range strategy.Kinds {
		plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	run := func() {
		t.Helper()
		for i, plan := range plans {
			got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
			if _, err := RunStream(context.Background(), plan, db.Relation, cfg, got); err != nil {
				t.Fatalf("%v: %v", strategy.Kinds[i], err)
			}
			if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
				t.Fatalf("%v: result differs from the reference: %s", strategy.Kinds[i], diff)
			}
		}
	}
	run()
	placed := db.Placement().Bytes()
	if placed == 0 {
		t.Fatal("the runs placed nothing in the database's placement")
	}
	before := placedFrags(db.Placement(), db.Relation, plans)
	sums := make(map[placementKey]uint64, len(before))
	for key, frags := range before {
		sums[key] = fragSum(frags)
	}

	// FP scans every relation at once, in 8-tuple views: its first result
	// arrives while the scans are still lending.
	fp := plans[len(plans)-1]
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := cfg
	cancelled.BatchTuples = 8
	if _, err := RunStream(ctx, fp, db.Relation, cancelled, cancelSink{cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-scan returned %v, want context.Canceled", err)
	}
	run()

	if n := db.Placement().Bytes(); n != placed {
		t.Fatalf("the placement holds %d bytes after the runs, %d before", n, placed)
	}
	for key, frags := range placedFrags(db.Placement(), db.Relation, plans) {
		fresh := fragSum(relation.FragmentBatches(key.rel, key.attr, key.degree))
		if &frags[0] != &before[key][0] {
			t.Errorf("placement of %s on %v over %d was fragmented again", key.rel.Name, key.attr, key.degree)
		}
		if sum := fragSum(frags); sum != sums[key] || sum != fresh {
			t.Errorf("placement of %s on %v over %d: checksum %x before the runs, %x after, %x fresh",
				key.rel.Name, key.attr, key.degree, sums[key], sum, fresh)
		}
	}
}
