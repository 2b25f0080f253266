package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
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
// keeps between queries (batch pools, the placement of its database): three
// engines over three different databases, each queried and closed, must
// leave the heap where it started — the state is the engine's, not the
// process's.
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
			if eng.procs.PlacedBytes() == 0 {
				t.Error("queries on the engine's database cached no placement")
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if n := eng.procs.PlacedBytes(); n != 0 {
				t.Errorf("Close left %d placed bytes", n)
			}
		}()
		if now := heapInUse(); now > start+slack {
			t.Errorf("after engine %d: heap in use %d KiB, started at %d KiB", seed, now>>10, start>>10)
		}
	}
}

// TestForeignDatabaseBypassesPlacement: a query that brings its own q.DB is
// placed per run — it neither hits the engine's placement cache nor leaves
// its relations pinned there — and both kinds of query keep matching the
// reference.
func TestForeignDatabaseBypassesPlacement(t *testing.T) {
	own := sessionDB(t, 5, 800)
	foreign, err := wisconsin.Chain(wisconsin.Config{Relations: 5, Cardinality: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(own, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	run := func(db *wisconsin.Database) {
		t.Helper()
		q := sessionQuery(t, db, jointree.WideBushy, strategy.RD)
		if _, err := eng.Exec(context.Background(), q, WithVerify()); err != nil {
			t.Fatal(err)
		}
	}
	run(foreign)
	if n := eng.procs.PlacedBytes(); n != 0 {
		t.Fatalf("a foreign database placed %d bytes in the engine's cache", n)
	}
	run(own)
	placed := eng.procs.PlacedBytes()
	if placed == 0 {
		t.Fatal("the engine's own database was not cached")
	}
	run(own)
	run(foreign)
	if n := eng.procs.PlacedBytes(); n != placed {
		t.Fatalf("placed bytes moved from %d to %d on a cache hit and a foreign query", placed, n)
	}
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
