package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"weak"

	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// heapInUse returns the heap in use after two full collections (the second
// is FreeOSMemory's): the hash-table sync.Pools give their victims up on the
// second.
func heapInUse() uint64 {
	runtime.GC()
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestEngineResidentStateReleased is the memory guard for what an engine
// and its database keep between queries (batch pools and shells, the
// database's placement): three engines over three different databases, each
// queried and closed, must leave the heap where it started once the
// database is dropped — the state is the engine's and the database's, not
// the process's.
func TestEngineResidentStateReleased(t *testing.T) {
	const slack = 4 << 20
	start := heapInUse()
	for seed := int64(1); seed <= 3; seed++ {
		func() {
			db, err := wisconsin.Chain(wisconsin.Config{Relations: 10, Cardinality: 20000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := Open(db, WithEngineRuntime("parallel"))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []strategy.Kind{strategy.RD, strategy.FP} {
				q := sessionQuery(t, db, jointree.LeftLinear, kind)
				q.Procs = 40
				for i := 0; i < 2; i++ {
					if _, err := eng.Exec(context.Background(), q); err != nil {
						t.Fatal(err)
					}
				}
			}
			if db.Placement().Bytes() == 0 {
				t.Error("queries on the engine's database placed nothing")
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		if now := heapInUse(); now > start+slack {
			t.Errorf("after engine %d: heap in use %d KiB, started at %d KiB", seed, now>>10, start>>10)
		}
	}
}

// TestForeignDatabaseKeepsItsOwnPlacement: two databases never share a
// placement. A query that brings its own q.DB to an engine is placed in
// that database's placement, never in the engine's database's, and both
// kinds of query keep matching the reference; the placements grow only on
// their own database's first queries.
func TestForeignDatabaseKeepsItsOwnPlacement(t *testing.T) {
	own := sessionDB(t, 5, 800)
	foreign := sessionDB(t, 5, 800) // same generator, same relations' contents
	if own.Placement() == foreign.Placement() {
		t.Fatal("two databases share a placement")
	}
	eng, err := Open(own, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	run := func(db *wisconsin.Database, rt string) {
		t.Helper()
		q := sessionQuery(t, db, jointree.WideBushy, strategy.RD)
		if _, err := eng.Exec(context.Background(), q, WithVerify(), WithRuntime(rt)); err != nil {
			t.Fatal(err)
		}
	}
	run(foreign, "parallel")
	placed := foreign.Placement().Bytes()
	if placed == 0 || own.Placement().Bytes() != 0 {
		t.Fatalf("a foreign query placed %d bytes in its database and %d in the engine's", placed, own.Placement().Bytes())
	}
	run(own, "sim")
	mine := own.Placement().Bytes()
	if mine == 0 || foreign.Placement().Bytes() != placed {
		t.Fatalf("the engine's database placed %d bytes, and the foreign one's moved %d → %d", mine, placed, foreign.Placement().Bytes())
	}
	run(own, "parallel")
	run(foreign, "sim")
	if own.Placement().Bytes() != mine || foreign.Placement().Bytes() != placed {
		t.Fatal("a query whose placement was already made placed more")
	}
}

// TestRuntimesShareThePlacement: the simulator, the goroutine runtime and
// the spill runtime read one database's placement. Whichever runs first on a
// fresh database places its scans' relations there; the others then read the
// very same fragments — pointer-identical — and place nothing more.
func TestRuntimesShareThePlacement(t *testing.T) {
	runtimes := []string{"sim", "parallel", "spill"}
	for first := range runtimes {
		db := sessionDB(t, 6, 600)
		q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
		plan, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		frags := func() []*relation.Batch {
			var out []*relation.Batch
			for _, op := range plan.Ops {
				if op.Kind == xra.OpScan {
					out = append(out, &db.Placement().Fragments(db.Relation(op.Leaf), op.FragAttr, len(op.Procs))[0])
				}
			}
			return out
		}
		if _, err := Exec(context.Background(), q, WithRuntime(runtimes[first]), WithVerify()); err != nil {
			t.Fatal(err)
		}
		placed := db.Placement().Bytes()
		if placed == 0 {
			t.Fatalf("a %s run placed nothing in its database's placement", runtimes[first])
		}
		want := frags()
		for _, rt := range runtimes {
			if _, err := Exec(context.Background(), q, WithRuntime(rt), WithVerify()); err != nil {
				t.Fatal(err)
			}
		}
		if n := db.Placement().Bytes(); n != placed {
			t.Errorf("after %s first: the placement grew %d → %d bytes on runs of the same plan", runtimes[first], placed, n)
		}
		for i, f := range frags() {
			if f != want[i] {
				t.Errorf("after %s first: scan %d reads fragments other than those placed", runtimes[first], i)
			}
		}
	}
}

// TestPlacementDiesWithDatabase: a database's placement is reachable only
// through the database. Once a database that simulated, goroutine and spill
// runs placed is unreachable, the collector takes its placement too: no
// process-wide map or pool keeps it.
func TestPlacementDiesWithDatabase(t *testing.T) {
	gone := placeAndDrop(t)
	for i := 0; i < 10 && gone.Value() != nil; i++ {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Fatal("a placement outlived its unreachable database")
	}
}

// placeAndDrop places a fresh database through every in-process runtime and
// returns a weak pointer to its placement; the database goes out of reach
// when it returns.
//
//go:noinline
func placeAndDrop(t *testing.T) weak.Pointer[relation.Placement] {
	db := sessionDB(t, 5, 500)
	for _, rt := range []string{"sim", "parallel", "spill"} {
		if _, err := Exec(context.Background(), sessionQuery(t, db, jointree.LeftLinear, strategy.RD), WithRuntime(rt)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Placement().Bytes() == 0 {
		t.Fatal("the runs placed nothing")
	}
	return weak.Make(db.Placement())
}

// TestConcurrentSimExec: simulated Exec calls on several goroutines at once
// read one database's placement and draw on the same shared pools, and each
// still yields the reference multiset, the response time and the event count
// of a run alone (core's twin of engine.TestConcurrentRuns).
func TestConcurrentSimExec(t *testing.T) {
	db := sessionDB(t, 6, 400)
	want := Reference(db, sessionQuery(t, db, jointree.WideBushy, strategy.SP).Tree)
	var wg sync.WaitGroup
	for _, kind := range strategy.Kinds {
		q := sessionQuery(t, db, jointree.WideBushy, kind)
		q.Procs = 12
		alone, err := Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Exec(context.Background(), q)
				switch {
				case err != nil:
					t.Error(err)
				case !relation.EqualMultiset(res.Result, want):
					t.Errorf("%v: a concurrent run's result differs from the reference", kind)
				case res.Time != alone.Time || res.Stats.SimEvents != alone.Stats.SimEvents:
					t.Errorf("%v: a concurrent run took %v and %d events, alone %v and %d", kind, res.Time, res.Stats.SimEvents, alone.Time, alone.Stats.SimEvents)
				}
			}()
		}
	}
	wg.Wait()
}

// TestConcurrentQueriesShareResidentPools runs queries with different
// transport batch capacities at once on one engine. They draw from and
// return to the same long-lived pools — per capacity, so a batch can never
// come back to a pool of another size — and each must match the reference,
// round after round, with whatever the previous round left in the pools.
func TestConcurrentQueriesShareResidentPools(t *testing.T) {
	db := sessionDB(t, 6, 1500)
	eng, err := Open(db, WithEngineRuntime("parallel"), WithMaxConcurrent(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tree, err := jointree.BuildShape(jointree.LeftLinear, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(db, tree)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, batch := range []int{0, 16, 64} { // 0: the default, with its sized-down transport pools
			for _, kind := range []strategy.Kind{strategy.RD, strategy.FP} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					q := Query{DB: db, Tree: tree, Strategy: kind, Procs: 12}
					res, err := eng.Exec(context.Background(), q, WithBatchTuples(batch))
					if err != nil {
						t.Errorf("%v batch %d: %v", kind, batch, err)
						return
					}
					if diff := relation.DiffMultiset(res.Result, want); diff != "" {
						t.Errorf("%v batch %d: %s", kind, batch, diff)
					}
				}()
			}
		}
		wg.Wait()
	}
}
