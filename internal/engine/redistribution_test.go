package engine_test

import (
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/xra"
)

// nonIdealPlan builds a single-join plan whose scans are deliberately
// fragmented on the WRONG attribute and on different processors than the
// join, so both base operands must be redistributed over the network —
// the "full fragmentation" alternative the paper mentions (and rejects as
// the starting placement) in Section 4.1.
func nonIdealPlan() *xra.Plan {
	return &xra.Plan{
		Strategy: "TEST",
		Ops: []*xra.Op{
			{ID: "scan:R0", Kind: xra.OpScan, Leaf: 0, FragAttr: relation.Unique1, Procs: []int{0, 1}},
			{ID: "scan:R1", Kind: xra.OpScan, Leaf: 1, FragAttr: relation.Unique2, Procs: []int{2, 3}},
			{
				ID: "join:1", Kind: xra.OpSimpleJoin, JoinID: 1, BuildIsLower: true,
				Build: &xra.Input{From: "scan:R0", Route: relation.Unique2},
				Probe: &xra.Input{From: "scan:R1", Route: relation.Unique1},
				Procs: []int{4, 5, 6},
			},
			{ID: "collect", Kind: xra.OpCollect, In: &xra.Input{From: "join:1", Route: relation.Unique1},
				Procs: []int{xra.HostProc}},
		},
	}
}

func TestNonIdealFragmentationRedistributes(t *testing.T) {
	db := testDB(t, 2, 400, 21)
	res, err := gather(nonIdealPlan(), baseFn(db), costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 2)
	want := jointree.Reference(tree, baseFn(db))
	if d := relation.DiffMultiset(res.Result, want); d != "" {
		t.Fatalf("redistributed join wrong: %s", d)
	}
	// Both operands crossed the network: 800 remote tuples minimum.
	if res.Stats.TuplesMovedRemote < 800 {
		t.Errorf("remote tuples = %d, want >= 800 (both operands redistributed)",
			res.Stats.TuplesMovedRemote)
	}
}

func TestNonIdealCostsMoreThanIdeal(t *testing.T) {
	db := testDB(t, 2, 400, 22)
	nonIdeal, err := gather(nonIdealPlan(), baseFn(db), costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	// The ideal placement: scans co-located with the join, fragmented on
	// the join attributes.
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 2)
	ideal := run(t, planFor(t, strategy.SP, tree, 3, 400), db, costmodel.Default())
	if nonIdeal.Time <= ideal.Time {
		t.Errorf("non-ideal placement (%v) should cost more than ideal (%v)",
			nonIdeal.Time, ideal.Time)
	}
}

// TestPipeliningJoinRemoteBothSides exercises the pipelining join with both
// operands arriving over the network in interleaved order.
func TestPipeliningJoinRemoteBothSides(t *testing.T) {
	p := nonIdealPlan()
	p.Ops[2].Kind = xra.OpPipeJoin
	db := testDB(t, 2, 300, 23)
	res, err := gather(p, baseFn(db), costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 2)
	want := jointree.Reference(tree, baseFn(db))
	if d := relation.DiffMultiset(res.Result, want); d != "" {
		t.Fatalf("remote pipelining join wrong: %s", d)
	}
}

// TestTinyBatches stresses per-batch bookkeeping: batch size 1 must still
// produce the exact result (and many more simulation events).
func TestTinyBatches(t *testing.T) {
	db := testDB(t, 4, 100, 24)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 4)
	params := costmodel.Default()
	params.BatchTuples = 1
	for _, k := range strategy.Kinds {
		p := planFor(t, k, tree, 6, 100)
		res := run(t, p, db, params)
		want := jointree.Reference(tree, baseFn(db))
		if d := relation.DiffMultiset(res.Result, want); d != "" {
			t.Errorf("%v with 1-tuple batches: %s", k, d)
		}
	}
}

// TestEmptyBaseRelation: joins over an empty relation produce an empty
// result and still terminate cleanly (EOS propagation with no data).
func TestEmptyBaseRelation(t *testing.T) {
	db := testDB(t, 3, 50, 25)
	empty := relation.New("R1", 208)
	base := func(leaf int) *relation.Relation {
		if leaf == 1 {
			return empty
		}
		return db.Relation(leaf)
	}
	tree, _ := jointree.BuildShape(jointree.RightLinear, 3)
	for _, k := range strategy.Kinds {
		p := planFor(t, k, tree, 4, 50)
		res, err := gather(p, base, costmodel.Default())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Result.Card() != 0 {
			t.Errorf("%v: %d tuples from empty operand", k, res.Result.Card())
		}
		if res.Time <= 0 {
			t.Errorf("%v: degenerate response time", k)
		}
	}
}

// TestMoreProcsNeverChangesResult: the result is invariant under the degree
// of parallelism.
func TestMoreProcsNeverChangesResult(t *testing.T) {
	db := testDB(t, 6, 300, 26)
	tree, _ := jointree.BuildShape(jointree.RightBushy, 6)
	want := jointree.Reference(tree, baseFn(db))
	for _, procs := range []int{5, 7, 13, 24} {
		for _, k := range strategy.Kinds {
			p := planFor(t, k, tree, procs, 300)
			res := run(t, p, db, costmodel.Default())
			if d := relation.DiffMultiset(res.Result, want); d != "" {
				t.Errorf("%v at %d procs: %s", k, procs, d)
			}
		}
	}
}
