package core

import (
	"context"
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/optimizer"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

func testDB(t *testing.T, relations, card int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 42})
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return db
}

// TestAllStrategiesAllShapesMatchReference is the central correctness check:
// every strategy on every paper query shape must produce exactly the
// sequential reference result (including provenance checksums).
func TestAllStrategiesAllShapesMatchReference(t *testing.T) {
	db := testDB(t, 10, 200)
	for _, shape := range jointree.Shapes {
		tree, err := jointree.BuildShape(shape, db.NumRelations())
		if err != nil {
			t.Fatalf("BuildShape(%v): %v", shape, err)
		}
		for _, kind := range strategy.Kinds {
			kind, tree, shape := kind, tree, shape
			t.Run(shape.String()+"/"+kind.String(), func(t *testing.T) {
				res, err := Exec(context.Background(), Query{
					DB: db, Tree: tree, Strategy: kind, Procs: 12,
					Params: costmodel.Default(),
				}, WithVerify())
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.ResultTuples != db.Cardinality() {
					t.Errorf("result tuples = %d, want %d", res.Stats.ResultTuples, db.Cardinality())
				}
				if res.Time <= 0 {
					t.Errorf("non-positive response time %v", res.Time)
				}
				ok, err := db.SamePairs(res.Result, 0, db.NumRelations()-1)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("result pairs differ from expected span pairs")
				}
			})
		}
	}
}

// TestTwoPhase runs the complete pipeline: optimize then parallelize.
func TestTwoPhase(t *testing.T) {
	db := testDB(t, 6, 100)
	for _, space := range []optimizer.Space{optimizer.LinearSpace, optimizer.BushySpace} {
		tree, res, err := TwoPhase(db, space, strategy.FP, 8, costmodel.Default())
		if err != nil {
			t.Fatalf("TwoPhase(%v): %v", space, err)
		}
		if jointree.NumJoins(tree) != 5 {
			t.Errorf("space %v: tree has %d joins, want 5", space, jointree.NumJoins(tree))
		}
		if res.Stats.ResultTuples != db.Cardinality() {
			t.Errorf("space %v: got %d tuples, want %d", space, res.Stats.ResultTuples, db.Cardinality())
		}
	}
}

// TestExampleTree executes the Figure 2 example tree with all strategies.
func TestExampleTree(t *testing.T) {
	db := testDB(t, 5, 150)
	tree := jointree.Example()
	for _, kind := range strategy.Kinds {
		if _, err := Exec(context.Background(), Query{
			DB: db, Tree: tree, Strategy: kind, Procs: 10,
			Params: costmodel.Default(),
		}, WithVerify()); err != nil {
			t.Errorf("%v on example tree: %v", kind, err)
		}
	}
}
