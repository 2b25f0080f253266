package core

import (
	"context"
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// variableDB builds the non-regular halving chain used by the cost-function
// experiments.
func variableDB(t *testing.T, cards []int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Cards: cards, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestVariableChainAllStrategiesMatchReference: correctness holds on
// non-regular workloads too, for every strategy and shape.
func TestVariableChainAllStrategiesMatchReference(t *testing.T) {
	db := variableDB(t, []int{400, 200, 100, 50, 25, 12})
	for _, shape := range jointree.Shapes {
		tree, err := jointree.BuildShape(shape, db.NumRelations())
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range strategy.Kinds {
			res, err := Exec(context.Background(), Query{
				DB: db, Tree: tree, Strategy: kind, Procs: 10,
				Params: costmodel.Default(),
			}, WithVerify())
			if err != nil {
				t.Errorf("%v/%v: %v", shape, kind, err)
				continue
			}
			if res.Stats.ResultTuples != 400 {
				t.Errorf("%v/%v: %d result tuples, want 400 (lower-span card)",
					shape, kind, res.Stats.ResultTuples)
			}
		}
	}
}

// TestVariableAllocationFollowsWork: on the halving chain the cost function
// must give the big joins (near the chain head) more processors than the
// tiny ones.
func TestVariableAllocationFollowsWork(t *testing.T) {
	db := variableDB(t, []int{3200, 1600, 800, 400, 200, 100, 50, 25})
	tree, err := jointree.BuildShape(jointree.RightLinear, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 24,
		Params: costmodel.Default()}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// The right-linear tree's root join touches the largest relations.
	var rootProcs, bottomProcs int
	for _, o := range plan.Ops {
		if o.Kind != xra.OpPipeJoin {
			continue
		}
		// Post-order ids: join 1 is the deepest (smallest), join 7 the root.
		switch o.JoinID {
		case 7:
			rootProcs = len(o.Procs)
		case 1:
			bottomProcs = len(o.Procs)
		}
	}
	if rootProcs <= bottomProcs {
		t.Errorf("root join got %d procs, bottom %d: allocation ignores work",
			rootProcs, bottomProcs)
	}
}

// TestEqualWorkAblation: disabling the cost function must not change
// results, but must change the allocation (and typically the response time)
// for cost-function strategies, while SP is exactly unaffected.
func TestEqualWorkAblation(t *testing.T) {
	db := variableDB(t, []int{1600, 800, 400, 200, 100, 50})
	tree, err := jointree.BuildShape(jointree.RightBushy, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(db, tree)
	for _, kind := range strategy.Kinds {
		base, err := Exec(context.Background(), Query{DB: db, Tree: tree, Strategy: kind, Procs: 12,
			Params: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		equal, err := Exec(context.Background(), Query{DB: db, Tree: tree, Strategy: kind, Procs: 12,
			Params: costmodel.Default(), EqualWork: true})
		if err != nil {
			t.Fatal(err)
		}
		if equal.Result.Card() != want.Card() {
			t.Errorf("%v equal-work result wrong", kind)
		}
		if kind == strategy.SP && base.Time != equal.Time {
			t.Errorf("SP must be unaffected by the cost function: %v vs %v",
				base.Time, equal.Time)
		}
		if kind == strategy.FP && equal.Time <= base.Time {
			t.Errorf("FP without cost function (%v) should be slower than with (%v)",
				equal.Time, base.Time)
		}
	}
}
