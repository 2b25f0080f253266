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
// would have to mint afresh, and the joins' probe scratch comes back with
// their recycled tables. Measured on one processor (AllocsPerRun): 1 875
// allocations per query; 2 234 when the scans copied into pooled batches and
// each join allocated its probe scratch.
func TestRDQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled memory at random")
	}
	const bound = 1969 // allocations per query: the measured 1 875 plus 5 %
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
