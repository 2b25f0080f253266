// Package integration runs cross-module end-to-end checks that no single
// package owns: every strategy over every parenthesization of a chain,
// plan-text round trips through the executor, and the full two-phase
// pipeline against skewed catalogs.
package integration

import (
	"context"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/costmodel"
	"multijoin/internal/diagram"
	"multijoin/internal/engine"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

func chainDB(t *testing.T, k, card int, seed int64) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: k, Cardinality: card, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAllParenthesizationsAllStrategies executes every join tree of a
// 5-relation chain (14 parenthesizations) under all four strategies and
// compares each result to the sequential reference of the same tree.
func TestAllParenthesizationsAllStrategies(t *testing.T) {
	const k = 5
	db := chainDB(t, k, 120, 101)
	trees, err := optimizer.AllTrees(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 14 {
		t.Fatalf("expected 14 trees, got %d", len(trees))
	}
	for ti, tree := range trees {
		want := core.Reference(db, tree)
		for _, kind := range strategy.Kinds {
			res, err := core.Exec(context.Background(), core.Query{
				DB: db, Tree: tree, Strategy: kind, Procs: 8,
				Params: costmodel.Default(),
			})
			if err != nil {
				t.Fatalf("tree %d (%v) %v: %v", ti, tree, kind, err)
			}
			if d := relation.DiffMultiset(res.Result, want); d != "" {
				t.Errorf("tree %d (%v) %v: %s", ti, tree, kind, d)
			}
		}
	}
}

// TestPlanTextRoundTripExecutes: encoding a plan to XRA text, parsing it
// back, and executing the parsed plan gives identical results and identical
// virtual response times — the text format loses nothing.
func TestPlanTextRoundTripExecutes(t *testing.T) {
	db := chainDB(t, 6, 200, 102)
	tree, err := jointree.BuildShape(jointree.RightBushy, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := func(leaf int) *relation.Relation { return db.Relation(leaf) }
	for _, kind := range strategy.Kinds {
		q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 9, Params: costmodel.Default()}
		plan, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := xra.Parse(xra.Encode(plan))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		simulate := func(p *xra.Plan) (*engine.RunResult, *relation.Relation) {
			g := &operator.Gather{Rel: relation.New("result", 0)}
			res, err := engine.RunStream(context.Background(), p, base, costmodel.Default(), g)
			if err != nil {
				t.Fatal(err)
			}
			return res, g.Rel
		}
		a, aRel := simulate(plan)
		b, bRel := simulate(parsed)
		if a.Time != b.Time {
			t.Errorf("%v: parsed plan response %v differs from original %v",
				kind, b.Time, a.Time)
		}
		if d := relation.DiffMultiset(aRel, bRel); d != "" {
			t.Errorf("%v: parsed plan result differs: %s", kind, d)
		}
	}
}

// TestTwoPhaseOnSkewedChain: phase 1 must pick a cheaper tree than the
// naive linear one on a variable-cardinality chain, and phase 2 must
// execute it correctly with every strategy.
func TestTwoPhaseOnSkewedChain(t *testing.T) {
	cards := []int{2000, 1000, 500, 250, 125, 64}
	db, err := wisconsin.Chain(wisconsin.Config{Cards: cards, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	cat := optimizer.Catalog{
		Cards: make([]float64, len(cards)),
		Sel:   make([]float64, len(cards)-1),
	}
	for i, c := range cards {
		cat.Cards[i] = float64(c)
	}
	// Selectivity consistent with the generator: |span(lo,hi)| = cards[lo],
	// i.e. sel at boundary i = 1/cards[i+1].
	for i := range cat.Sel {
		cat.Sel[i] = 1 / float64(cards[i+1])
	}
	opt, err := optimizer.Optimize(cat, optimizer.BushySpace)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range strategy.Kinds {
		res, err := core.Exec(context.Background(), core.Query{
			DB: db, Tree: opt.Tree, Strategy: kind, Procs: 10,
			Params: costmodel.Default(),
		}, core.WithVerify())
		if err != nil {
			t.Fatalf("%v on optimized tree: %v", kind, err)
		}
		if res.Stats.ResultTuples != cards[0] {
			t.Errorf("%v: %d result tuples, want %d", kind, res.Stats.ResultTuples, cards[0])
		}
	}
}

// TestUtilizationNeverExceedsMachine: across a grid of configurations, total
// recorded busy time never exceeds processors x response time, and response
// time never exceeds the sum of all work (sanity bounds of the DES).
func TestUtilizationNeverExceedsMachine(t *testing.T) {
	db := chainDB(t, 8, 300, 104)
	params := costmodel.Default()
	params.RecordUtilization = true
	for _, shape := range jointree.Shapes {
		tree, err := jointree.BuildShape(shape, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range strategy.Kinds {
			res, err := core.Exec(context.Background(), core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10,
				Params: params})
			if err != nil {
				t.Fatal(err)
			}
			// Busy intervals are virtual microseconds, res.Time a
			// time.Duration; diagram owns the mapping between the two.
			switch u := diagram.Utilization(res.Procs, res.Time); {
			case u > 1:
				t.Errorf("%v/%v: busy time is %.4f of processors x response time", shape, kind, u)
			case u <= 0:
				t.Errorf("%v/%v: nothing recorded", shape, kind)
			}
		}
	}
}

// TestSchedulerAccounting: the engine's stats must agree with the plan's
// static structure for every strategy and shape.
func TestSchedulerAccounting(t *testing.T) {
	db := chainDB(t, 10, 100, 105)
	for _, shape := range jointree.Shapes {
		tree, err := jointree.BuildShape(shape, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 12,
				Params: costmodel.Default()}
			plan, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Exec(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Processes != plan.NumProcesses() {
				t.Errorf("%v/%v: processes %d vs plan %d", shape, kind,
					res.Stats.Processes, plan.NumProcesses())
			}
			if res.Stats.Streams != plan.NumStreams() {
				t.Errorf("%v/%v: streams %d vs plan %d", shape, kind,
					res.Stats.Streams, plan.NumStreams())
			}
		}
	}
}
