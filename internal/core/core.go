// Package core ties the reproduction together: it exposes the two-phase
// optimization/parallelization pipeline of the paper as a small API.
//
// Phase 1 (package optimizer) picks a join tree with minimal total cost;
// phase 2 (package strategy) parallelizes a tree with one of the four
// strategies; the engine executes the resulting xra plan on the simulated
// PRISMA/DB machine. Core also provides the sequential reference execution
// used to verify every parallel run.
package core

import (
	"context"
	"fmt"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// Query is one parallel multi-join execution request: a database, a join
// tree over its relations, a parallelization strategy, and a machine size.
type Query struct {
	DB       *wisconsin.Database
	Tree     *jointree.Node
	Strategy strategy.Kind
	Procs    int
	Params   costmodel.Params
	// EqualWork disables the strategies' cost function for this query:
	// every join is weighted equally when distributing processors (the
	// Section 5 cost-function ablation).
	EqualWork bool
}

// Plan produces the xra plan for the query (phase 2 only). Work estimates
// use the database's exact span cardinalities, which on the paper's regular
// workload reduce to the constant per-relation cardinality.
func (q Query) Plan() (*xra.Plan, error) {
	if q.DB == nil || q.Tree == nil {
		return nil, fmt.Errorf("core: query needs a database and a join tree")
	}
	cfg := strategy.Config{
		Procs:     q.Procs,
		Card:      float64(q.DB.Cardinality()),
		SpanCard:  q.DB.SpanCard,
		EqualWork: q.EqualWork,
	}
	return strategy.Plan(q.Strategy, q.Tree, cfg)
}

func (q Query) baseRelation(leaf int) *relation.Relation {
	if leaf < 0 || leaf >= q.DB.NumRelations() {
		return nil
	}
	return q.DB.Relation(leaf)
}

// tupleBytes is the declared tuple width for the query's result relation
// (the base relations all share one width).
func (q Query) tupleBytes() int {
	if q.DB == nil || q.DB.NumRelations() == 0 {
		return 0
	}
	return q.DB.Relation(0).TupleBytes
}

// estResultCard is the upper-bound result cardinality used to presize
// materialized results (Exec, Rows.All): the chain query's joins are
// 1:1, so the largest base relation bounds the output — the same estimate
// the runtimes use to size hash tables and collect buffers.
func (q Query) estResultCard() int {
	if q.DB == nil {
		return 0
	}
	est := 0
	for i := 0; i < q.DB.NumRelations(); i++ {
		if c := q.DB.Card(i); c > est {
			est = c
		}
	}
	return est
}

// Reference evaluates the tree sequentially with real hash joins — the
// oracle result, with provenance checksums, that every strategy must
// reproduce exactly.
func Reference(db *wisconsin.Database, tree *jointree.Node) *relation.Relation {
	return jointree.Reference(tree, func(leaf int) *relation.Relation {
		return db.Relation(leaf)
	})
}

// TwoPhase performs the full two-phase pipeline of Section 1.2: phase 1
// picks the minimal-total-cost tree for the database's uniform catalog in
// the given search space, phase 2 parallelizes it and executes it on the
// simulated machine.
func TwoPhase(db *wisconsin.Database, space optimizer.Space, kind strategy.Kind, procs int, params costmodel.Params) (*jointree.Node, *Result, error) {
	cat := optimizer.Uniform(db.NumRelations(), float64(db.Cardinality()))
	opt, err := optimizer.Optimize(cat, space)
	if err != nil {
		return nil, nil, err
	}
	res, err := Exec(context.Background(), Query{DB: db, Tree: opt.Tree, Strategy: kind, Procs: procs, Params: params})
	if err != nil {
		return nil, nil, err
	}
	return opt.Tree, res, nil
}
