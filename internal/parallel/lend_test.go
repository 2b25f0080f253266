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
)

// cancelSink cancels its run at the first result batch it is pushed.
type cancelSink struct{ cancel context.CancelFunc }

func (s cancelSink) Push(_ context.Context, _ *relation.Batch, release func()) error {
	s.cancel()
	release()
	return nil
}

// placedSums returns a checksum of every cached fragmentation, by key.
func placedSums(p *ProcPool) map[placement]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	sums := make(map[placement]uint64, len(p.placed))
	for key, e := range p.placed {
		sums[key] = fragSum(e.frags)
	}
	return sums
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
// state an engine keeps between queries: one ProcPool with its database
// pinned runs every strategy twice, with a run cancelled mid-scan between
// the rounds. Scans lend the cached fragments' views to the joins, which
// hold, apply and return them like pooled batches, and a cancelled delivery
// hands its view back to a pool. None of that may write a fragment: the cache
// afterwards is checksum-identical to what it held before, and to a fresh
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
	p.Pin(db.Relations)
	run := func(kind strategy.Kind) {
		t.Helper()
		plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
		if err != nil {
			t.Fatal(err)
		}
		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		if _, err := RunStream(context.Background(), plan, db.Relation, Config{Pool: p}, got); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
			t.Fatalf("%v: result differs from the reference: %s", kind, diff)
		}
	}
	for _, kind := range strategy.Kinds {
		run(kind)
	}
	before := placedSums(p)
	if len(before) == 0 {
		t.Fatal("no placement was cached")
	}

	// FP scans every relation at once, in 8-tuple views: its first result
	// arrives while the scans are still lending.
	plan, err := strategy.Plan(strategy.FP, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := RunStream(ctx, plan, db.Relation, Config{Pool: p, BatchTuples: 8}, cancelSink{cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-scan returned %v, want context.Canceled", err)
	}
	for _, kind := range strategy.Kinds {
		run(kind)
	}

	after := placedSums(p)
	if len(after) != len(before) {
		t.Fatalf("%d placements cached after the runs, %d before", len(after), len(before))
	}
	for key, sum := range before {
		fresh := fragSum(relation.FragmentBatches(key.rel, key.attr, key.degree))
		if after[key] != sum || sum != fresh {
			t.Errorf("placement of %s on %v over %d: checksum %x before the runs, %x after, %x fresh",
				key.rel.Name, key.attr, key.degree, sum, after[key], fresh)
		}
	}
}
