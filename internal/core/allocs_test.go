package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

// TestRDQueryAllocs pins what a query allocates on a warmed engine, in two
// shapes of the repository benchmark: exec_rd's RD query — left-linear, ten
// relations, 40 processors, here at 2 000 tuples each — and serve_small_cycle's
// four-strategy cycle on wide-bushy 10×1 000 at 16 processors, counted per
// query. A query of a cached plan runs on the shell its plan's last run left to
// the engine's ProcPool: the wiring, hosts, inboxes, outboxes and join states
// are re-armed, not rebuilt, the held probe queues keep their memory, and the
// scans lend their database's placed fragments. Its hosts wake where they
// parked after the last run instead of starting goroutines, and the collect
// hands each result batch over with a recycled releaser. What is left is the
// run's context, the start signals of the operators with After dependencies
// and the result. Measured on a two-processor machine (the engine's slot
// count at Open): 36 and 33 allocations per query; 44 and 37 when the collect
// made a release closure per result batch; 91 and 82 when every run started a
// goroutine per host and the admission
// estimate listed and sorted the tree's leaves; 130 and 122 when every operator
// had start and completion channels and each one with After dependencies a
// goroutine waiting on them; 642 and 606 when every run built its shell, and
// for the RD query 1 874 when each join allocated its hash join and a table
// struct, a table's release its memory's carrier, and the held queue and
// process lists grew by append, 2 234 when the scans also copied into pooled
// batches and each join allocated its probe scratch.
func TestRDQueryAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	cases := []struct {
		name  string
		shape jointree.Shape
		card  int
		procs int
		kinds []strategy.Kind
		bound float64 // allocations per query: the measured count plus 5 %
	}{
		{"exec_rd", jointree.LeftLinear, 2000, 40, []strategy.Kind{strategy.RD}, 38},
		{"small_cycle", jointree.WideBushy, 1000, 16, strategy.Kinds, 35},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := sessionDB(t, 10, c.card)
			eng, err := Open(db, WithEngineRuntime("parallel"))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			qs := make([]Query, len(c.kinds))
			for i, kind := range c.kinds {
				qs[i] = sessionQuery(t, db, c.shape, kind)
				qs[i].Procs = c.procs
			}
			run := func() {
				for _, q := range qs {
					if _, err := eng.Exec(context.Background(), q); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range 5 {
				run()
			}
			allocs := testing.AllocsPerRun(20, run) / float64(len(qs))
			t.Logf("allocations per query: %.0f", allocs)
			if allocs > c.bound {
				t.Errorf("a query allocates %.0f times, want at most %.0f", allocs, c.bound)
			}
		})
	}
}

// TestSimExecAllocs pins what a warm round of simulated queries allocates
// through core.Exec: SP, SE, RD and FP on one wide-bushy 10×500 database at
// 40 processors. The first round places the database's relations and fills
// relation's shared pools; the second is measured with the collector held
// off, so that the pools keep what the first returned. A warm round reads
// every fragment and lent view from the database's placement: a run that
// fragmented its relations again would copy each one it scans, about 600
// KiB more per round. Measured on a two-processor machine: 4 090–4 205 KiB
// in 14 305–14 395 allocations.
func TestSimExecAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	const (
		boundBytes  = 4415 << 10 // the measured 4 205 KiB plus 5 %
		boundAllocs = 15115      // the measured 14 395 plus 5 %
	)
	db := sessionDB(t, 10, 500)
	qs := make([]Query, len(strategy.Kinds))
	for i, kind := range strategy.Kinds {
		qs[i] = sessionQuery(t, db, jointree.WideBushy, kind)
		qs[i].Procs = 40
	}
	round := func() {
		for _, q := range qs {
			if _, err := Exec(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Finish any collection an earlier test started: one still in flight
	// when the collector is held off would empty the pools mid-measurement.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("a warm round of %d simulated queries allocates %d KiB in %d allocations", len(qs), bytes>>10, allocs)
	if bytes > boundBytes || allocs > boundAllocs {
		t.Errorf("a warm round allocates %d KiB in %d allocations, want at most %d KiB and %d", bytes>>10, allocs, boundBytes>>10, boundAllocs)
	}
}
