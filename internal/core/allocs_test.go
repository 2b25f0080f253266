package core

import (
	"context"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

// TestRDQueryAllocs pins what an RD query shaped like the benchmark's
// exec_rd — left-linear, ten relations, 40 processors, here at 2 000 tuples
// each — allocates on a warmed engine: its scans lend the pinned
// relations' cached fragments, so the probe operands the simple joins hold
// through their build phases are views, not batches the resident pools
// would have to mint afresh, and a join process allocates nothing of its own
// but its held-probe queue, sized once: its tables come recycled whole with
// their probe scratch, its hash join lives inside it, and its host's process
// list is made at its final length. Measured on a two-processor machine (the
// engine's slot count at Open): 642 allocations per query; 1 874 when each
// join allocated its hash join and a table struct, a table's release its
// memory's carrier, and the held queue and process lists grew by append;
// 2 234 when the scans also copied into pooled batches and each join
// allocated its probe scratch.
func TestRDQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled memory at random")
	}
	const bound = 674 // allocations per query: the measured 642 plus 5 %
	db := sessionDB(t, 10, 2000)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.RD)
	q.Procs = 40
	run := func() {
		if _, err := eng.Exec(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("allocations per query: %.0f", allocs)
	if allocs > bound {
		t.Errorf("an RD query allocates %.0f times, want at most %d", allocs, bound)
	}
}
