package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// cancelQuery is a workload large enough (~tens of milliseconds per run on
// every runtime) that a cancel a few milliseconds in is reliably mid-query.
// At 8 000 tuples per relation the goroutine runtime sometimes finished in
// under 5 ms on a 2-vCPU host and beat the cancel.
func cancelQuery(t testing.TB) Query {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 10, Cardinality: 40000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, 10)
	if err != nil {
		t.Fatal(err)
	}
	return Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 16}
}

// builtinRuntimes are the built-in backends under test, named explicitly so
// that runtimes leaked into the global registry by other tests (which may
// complete instantly and legitimately beat a cancel) cannot affect the
// cancellation assertions. The spill runtime runs here with its default
// budget (no spilling); the spill-specific cancellation audits with a
// forcing budget live in spill_test.go.
var builtinRuntimes = []string{"sim", "parallel", "spill"}

// TestExecCancelMidQuery cancels a context mid-execution on both built-in
// runtimes and asserts a prompt context.Canceled return and no leaked
// goroutines.
func TestExecCancelMidQuery(t *testing.T) {
	q := cancelQuery(t)
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := Exec(ctx, q, WithRuntime(rt))
				errc <- err
			}()
			time.Sleep(5 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Exec after cancel returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Exec did not return within 10s of cancellation (started %v ago)", time.Since(start))
			}
			if err := atrest.Goroutines(before+2, 5*time.Second); err != nil {
				t.Errorf("goroutine leak after cancel: %v", err)
			}
		})
	}
}

// TestExecCancelBeforeStart passes an already-cancelled context: both
// runtimes must refuse to execute and return the context error without
// launching anything.
func TestExecCancelBeforeStart(t *testing.T) {
	q := cancelQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			before := runtime.NumGoroutine()
			start := time.Now()
			_, err := Exec(ctx, q, WithRuntime(rt))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Exec with cancelled context returned %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("pre-cancelled Exec took %v, want immediate return", elapsed)
			}
			if err := atrest.Goroutines(before+2, 5*time.Second); err != nil {
				t.Errorf("goroutine leak: %v", err)
			}
		})
	}
}

// TestExecDeadline exercises the context.DeadlineExceeded path on both
// runtimes.
func TestExecDeadline(t *testing.T) {
	q := cancelQuery(t)
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
			defer cancel()
			_, err := Exec(ctx, q, WithRuntime(rt))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Exec past deadline returned %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// TestExecCancelledRepeatedly stresses cancellation teardown under the race
// detector: many back-to-back cancelled runs must neither deadlock nor
// accumulate goroutines.
func TestExecCancelledRepeatedly(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation stress skipped in -short mode")
	}
	q := cancelQuery(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		for _, rt := range builtinRuntimes {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := Exec(ctx, q, WithRuntime(rt))
				errc <- err
			}()
			// Vary the cancellation point from "immediately" upward to hit
			// different teardown phases (setup, scan, join, drain).
			time.Sleep(time.Duration(i) * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				// nil is possible when the run beats a late cancel.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d %s: %v", i, rt, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d %s: Exec hung after cancel", i, rt)
			}
		}
	}
	if err := atrest.Goroutines(before+4, 5*time.Second); err != nil {
		t.Errorf("goroutine accumulation across cancelled runs: %v", err)
	}
}

// TestEngineCancelEveryStrategy audits cancellation under an engine, where
// the batch pools outlive the query and inbox sends and receives try the
// plain channel operation before they select on the run's cancellation:
// for every strategy (RD and SE bring After dependencies and buffering
// processes) on both goroutine runtimes, a pre-cancelled context starts
// nothing, and a query cancelled while its consumer has stopped reading —
// the run parked in Push, inboxes full behind it — unwinds completely:
// goroutines back to the baseline plus the hosts the engine's ProcPool keeps
// parked for the completed queries' plans, the shared meter at zero, no
// temp files.
// The batches such a run strands in its inboxes are garbage, never returned
// to the resident pools, so the same engine then still answers the query
// correctly from those pools.
func TestEngineCancelEveryStrategy(t *testing.T) {
	q := cancelQuery(t)
	want := Reference(q.DB, q.Tree)
	for _, rt := range []string{"parallel", "spill"} {
		t.Run(rt, func(t *testing.T) {
			tmp := scopeTempDir(t)
			eng, err := Open(q.DB, WithEngineRuntime(rt), WithEngineMemoryBudget(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			before := runtime.NumGoroutine()
			atRest := func(when string) {
				t.Helper()
				if err := atrest.Goroutines(before+2+eng.procs.Parked(), 5*time.Second); err != nil {
					t.Errorf("%s: %v", when, err)
				}
				if live := eng.MemoryLive(); live != 0 {
					t.Errorf("%s: %d live bytes on the shared meter", when, live)
				}
				if left := spillTempFiles(t, tmp); len(left) != 0 {
					t.Errorf("%s: temp files left: %v", when, left)
				}
			}
			for _, kind := range strategy.Kinds {
				q := q
				q.Strategy = kind

				dead, cancel := context.WithCancel(context.Background())
				cancel()
				if rows, err := eng.Query(dead, q); err == nil {
					for rows.Next() {
					}
					if !errors.Is(rows.Err(), context.Canceled) {
						t.Errorf("%v: pre-cancelled query ended with %v, want context.Canceled", kind, rows.Err())
					}
					rows.Close()
				} else if !errors.Is(err, context.Canceled) {
					t.Errorf("%v: pre-cancelled Query returned %v, want context.Canceled", kind, err)
				}
				atRest(kind.String() + " pre-cancelled")

				ctx, cancel := context.WithCancel(context.Background())
				rows, err := eng.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !rows.Next() {
					t.Fatalf("%v: no first tuple: %v", kind, rows.Err())
				}
				cancel() // the consumer is not reading: the run unwinds parked in Push
				<-rows.done
				for rows.Next() {
				}
				if err := rows.Err(); !errors.Is(err, context.Canceled) {
					t.Errorf("%v: Err after mid-query cancel = %v, want context.Canceled", kind, err)
				}
				rows.Close()
				atRest(kind.String() + " cancelled mid-query")

				res, err := eng.Exec(context.Background(), q)
				if err != nil {
					t.Fatalf("%v after the cancelled runs: %v", kind, err)
				}
				if diff := relation.DiffMultiset(res.Result, want); diff != "" {
					t.Errorf("%v after the cancelled runs: %s", kind, diff)
				}
				atRest(kind.String() + " completed")
			}
		})
	}
}
