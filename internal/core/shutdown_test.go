package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

// closeWithin runs eng.Close in a goroutine and fails the test if it does
// not return within d — the pre-fix Engine.Close parked forever on
// inflight.Wait when a streaming cursor's consumer had walked away.
func closeWithin(t *testing.T, eng *Engine, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { eng.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Engine.Close hung on a streaming cursor nobody reads")
	}
}

// TestEngineCloseWhileRowsStreaming is the regression test for server
// shutdown's hottest path: Engine.Close while Rows cursors are still
// streaming and their consumers have stopped reading. Close must force the
// cursors down — not hang on them, not strand their pooled batches or the
// shared meter's reservations — and the abandoned cursors must report
// ErrEngineClosed, never a silently truncated clean stream.
func TestEngineCloseWhileRowsStreaming(t *testing.T) {
	before := runtime.NumGoroutine()
	fdBefore := atrest.OpenFDs()
	q := cancelQuery(t)
	eng, err := Open(q.DB,
		WithMaxConcurrent(8),
		WithEngineMemoryBudget(64<<10), // force spilling: temp files in flight at Close
		WithAdmissionPolicy("cost"))
	if err != nil {
		t.Fatal(err)
	}

	// Four queries, each read a little and then abandoned mid-stream: the
	// runtimes are parked in Push against full cursor channels. One spill
	// query only — its whole-budget reservation serializes further memory
	// consumers behind it by design, and nothing here ever finishes.
	var cursors []*Rows
	for i := 0; i < 4; i++ {
		rt := "parallel"
		if i == 0 {
			rt = "spill"
		}
		rows, err := eng.Query(context.Background(), q, WithRuntime(rt))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("query %d produced no rows: %v", i, rows.Err())
		}
		cursors = append(cursors, rows)
	}
	placed := q.DB.Placement().Bytes()
	if placed == 0 {
		t.Error("the in-memory queries placed nothing in the database's placement")
	}

	closeWithin(t, eng, 30*time.Second)

	for i, rows := range cursors {
		if err := rows.Err(); !errors.Is(err, ErrEngineClosed) {
			t.Errorf("cursor %d force-closed by the engine reports Err = %v, want ErrEngineClosed", i, err)
		}
		if rows.Next() {
			t.Errorf("cursor %d still yields tuples after engine close", i)
		}
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d bytes after Close, want 0 (stranded reservations/batches)", live)
	}
	if n := q.DB.Placement().Bytes(); n != placed {
		t.Errorf("the database's placement went from %d to %d bytes at the engine's Close; it is the database's", placed, n)
	}
	if err := atrest.Goroutines(before+4, 10*time.Second); err != nil {
		t.Errorf("goroutines after close (leak): %v", err)
	}
	if err := atrest.FDs(fdBefore, 10*time.Second); err != nil {
		t.Errorf("fds after close (leaked spill temp files): %v", err)
	}
}

// TestEngineCloseSettlesUndrainedFinishedCursor covers the quieter strand:
// a query whose execution completed but whose cursor nobody ever read or
// closed. Its last pooled batch sits in the cursor channel and its
// admission-time reservation is still charged to the shared meter;
// Engine.Close must find the cursor and settle both.
func TestEngineCloseSettlesUndrainedFinishedCursor(t *testing.T) {
	db := sessionDB(t, 3, 64)
	eng, err := Open(db, WithAdmissionPolicy("cost"))
	if err != nil {
		t.Fatal(err)
	}
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	want := len(Reference(db, q.Tree).Tuples)
	rows, err := eng.Query(context.Background(), q, WithRuntime("spill"))
	if err != nil {
		t.Fatal(err)
	}
	// Consume every tuple but never take the final Next that would notice
	// the stream's end (and settle the cursor): execution completes, yet the
	// cursor still holds its last pooled batch and its reservation.
	for i := 0; i < want; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d tuples, want %d: %v", i, want, rows.Err())
		}
	}
	select {
	case <-rows.done: // execution finished; cursor abandoned unsettled
	case <-time.After(30 * time.Second):
		t.Fatal("query did not finish")
	}
	if live := eng.MemoryLive(); live == 0 {
		t.Skip("no live bytes to strand on this host; nothing to regress")
	}
	closeWithin(t, eng, 30*time.Second)
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d bytes after Close, want 0", live)
	}
	if err := rows.Err(); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("undrained cursor reports Err = %v, want ErrEngineClosed", err)
	}
}

// TestEngineShutdownGracefulDrain: Shutdown with headroom lets active
// consumers finish their streams untruncated — the serving front end's
// SIGTERM path — and still ends with a settled meter.
func TestEngineShutdownGracefulDrain(t *testing.T) {
	db := sessionDB(t, 4, 400)
	eng, err := Open(db, WithMaxConcurrent(4))
	if err != nil {
		t.Fatal(err)
	}
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)

	const consumers = 4
	counts := make([]int, consumers)
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	started := make(chan struct{}, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := eng.Query(context.Background(), q, WithRuntime("parallel"))
			if err != nil {
				errs[i] = err
				started <- struct{}{}
				return
			}
			first := true
			for rows.Next() {
				if first {
					started <- struct{}{}
					first = false
				}
				counts[i]++
				time.Sleep(100 * time.Microsecond) // slow consumer, still draining
			}
			errs[i] = rows.Err()
			rows.Close()
		}(i)
	}
	for i := 0; i < consumers; i++ {
		<-started
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	want := len(Reference(db, q.Tree).Tuples)
	for i := 0; i < consumers; i++ {
		if errs[i] != nil {
			t.Errorf("consumer %d: %v", i, errs[i])
		}
		if counts[i] != want {
			t.Errorf("consumer %d drained %d tuples, want %d (graceful shutdown truncated the stream)", i, counts[i], want)
		}
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d after graceful shutdown, want 0", live)
	}
}

// TestEngineCloseFailsQueuedAdmits: a query parked in the admission queue
// when the engine closes must fail promptly with ErrEngineClosed under
// both policies — pre-fix it stayed parked until the running query's slot
// freed, which during shutdown could be never.
func TestEngineCloseFailsQueuedAdmits(t *testing.T) {
	for _, policy := range AdmissionPolicies {
		t.Run(policy, func(t *testing.T) {
			q := cancelQuery(t)
			eng, err := Open(q.DB, WithMaxConcurrent(1), WithAdmissionPolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			// A holds the single slot, streaming, abandoned.
			a, err := eng.Query(context.Background(), q, WithRuntime("parallel"))
			if err != nil {
				t.Fatal(err)
			}
			if !a.Next() {
				t.Fatalf("A produced no rows: %v", a.Err())
			}
			// B queues behind it.
			errB := make(chan error, 1)
			go func() {
				rows, err := eng.Query(context.Background(), q, WithRuntime("parallel"))
				if rows != nil {
					rows.Close()
				}
				errB <- err
			}()
			time.Sleep(50 * time.Millisecond) // let B reach the admission queue

			closeWithin(t, eng, 30*time.Second)
			select {
			case err := <-errB:
				if !errors.Is(err, ErrEngineClosed) {
					t.Errorf("queued query returned %v, want ErrEngineClosed", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("queued query still parked after engine close")
			}
			if live := eng.MemoryLive(); live != 0 {
				t.Errorf("engine meter live = %d after close, want 0", live)
			}
		})
	}
}
