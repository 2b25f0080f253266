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

// TestCachedPlanRuns drives one engine through cached-plan runs that cycle
// the four strategies on the goroutine runtime — each run re-arming the
// shell an earlier completed run of its plan left to the engine's ProcPool —
// with a cancel after the first Next, a cancel while queued and a deadline
// mid-run interleaved. After every run the result is the reference's, the
// engine's meter is at zero and no goroutine is left but the hosts its
// ProcPool keeps parked (Parked). A query on a second
// database whose cardinalities bucket to the same plan key gets the cached
// plan but not a shell placed on the first database's relations. Right
// after Close no parked host is left (atrest.Closing).
func TestCachedPlanRuns(t *testing.T) {
	db := sessionDB(t, 6, parkedCard)
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(db, tree)
	eng, err := Open(db, WithEngineRuntime("parallel"), WithMaxConcurrent(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	baseline := runtime.NumGoroutine()
	bg := context.Background()
	// drain reads rows to the end into a relation that starts with the
	// tuple rows is positioned on, if any.
	drain := func(rows *Rows, positioned bool) (*relation.Relation, error) {
		got := relation.New("got", want.TupleBytes)
		if positioned {
			got.Append(rows.Tuple())
		}
		for rows.Next() {
			got.Append(rows.Tuple())
		}
		return got, rows.Close()
	}
	first := func(ctx context.Context, q Query) *Rows {
		t.Helper()
		rows, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first tuple: %v", rows.Err())
		}
		return rows
	}
	for i := range 56 {
		q := Query{DB: db, Tree: tree, Strategy: strategy.Kinds[i%4], Procs: 8}
		var got *relation.Relation
		switch i % 7 {
		case 2: // cancelled after the first Next
			ctx, cancel := context.WithCancel(bg)
			rows := first(ctx, q)
			cancel()
			if _, err := drain(rows, true); !errors.Is(rows.Err(), context.Canceled) {
				t.Fatalf("run %d: cancelled after the first Next: Err %v, Close %v", i, rows.Err(), err)
			}
		case 4: // cancelled while queued behind a run that completes
			held := first(bg, q)
			ctx, cancel := context.WithCancel(bg)
			time.AfterFunc(5*time.Millisecond, cancel)
			if _, err := eng.Query(ctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: cancelled while queued: %v", i, err)
			}
			if got, err = drain(held, true); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case 6: // past its deadline mid-run
			ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
			rows := first(ctx, q)
			<-ctx.Done()
			// The deadline closes ctx.Done before it reaches the run's own
			// context, so a cursor that resumes reading at once may still
			// let the run complete: then the result must be whole.
			got, _ = drain(rows, true)
			cancel()
			if err := rows.Err(); err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("run %d: deadline mid-run: Err %v", i, err)
				}
				got = nil
			}
		default:
			res, err := eng.Exec(bg, q)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			got = res.Result
		}
		if got != nil {
			if diff := relation.DiffMultiset(got, want); diff != "" {
				t.Fatalf("run %d (%v): result differs from the reference: %s", i, q.Strategy, diff)
			}
		}
		if live := eng.MemoryLive(); live != 0 {
			t.Fatalf("run %d: %d bytes live on the engine's meter", i, live)
		}
		if err := atrest.Goroutines(baseline+eng.procs.Parked(), 5*time.Second); err != nil {
			t.Fatalf("run %d: %v (%d before the runs, %d parked)", i, err, baseline, eng.procs.Parked())
		}
	}

	db2, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: parkedCard, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want2 := Reference(db2, tree)
	if relation.DiffMultiset(want2, want) == "" {
		t.Fatal("the second database joins to the first one's result")
	}
	hits, _ := eng.PlanCacheStats()
	res, err := eng.Exec(bg, Query{DB: db2, Tree: tree, Strategy: strategy.RD, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := eng.PlanCacheStats(); after != hits+1 {
		t.Fatalf("the second database's query missed the plan cache")
	}
	if diff := relation.DiffMultiset(res.Result, want2); diff != "" {
		t.Fatalf("the second database's query ran on the first one's relations: %s", diff)
	}

	// Close returns once the parked hosts have exited: no polling after it.
	if err := atrest.Goroutines(baseline+eng.procs.Parked(), 5*time.Second); err != nil {
		t.Fatalf("after the runs: %v (%d before them, %d parked)", err, baseline, eng.procs.Parked())
	}
	exited := atrest.Closing()
	eng.Close()
	if err := exited(baseline); err != nil {
		t.Fatalf("right after Close: %v", err)
	}
}
