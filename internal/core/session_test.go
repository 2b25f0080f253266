package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// sessionDB builds a small chain database shared by the session tests.
func sessionDB(t testing.TB, relations, card int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// parkedCard is a relation cardinality — and, the chain's joins being 1:1, a
// result cardinality — that keeps a goroutine-runtime query in flight after
// its cursor's first Next: however full the runtime makes its batches, the
// result is a batch more than an unread cursor takes off it (the batch it is
// positioned on, what its channel buffers, and the one the collect process
// is parked in Push with).
const parkedCard = (cursorBuffer + 3) * parallel.DefaultBatchTuples

func sessionQuery(t testing.TB, db *wisconsin.Database, shape jointree.Shape, kind strategy.Kind) Query {
	t.Helper()
	tree, err := jointree.BuildShape(shape, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	return Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
}

// TestEngineConcurrentQueries is the acceptance criterion: one Engine
// serving >= 8 concurrent queries across all three runtimes and all four
// strategies yields multiset-identical results to the sequential reference
// under -race, with queue waits recorded once admission throttles.
func TestEngineConcurrentQueries(t *testing.T) {
	db := sessionDB(t, 5, 600)
	eng, err := Open(db,
		WithMaxConcurrent(4), // half the in-flight queries wait: queue-wait paths exercised
		WithEngineMemoryBudget(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	runtimes := []string{"sim", "parallel", "spill"}
	shapes := []jointree.Shape{jointree.WideBushy, jointree.RightLinear}
	type job struct {
		rt    string
		shape jointree.Shape
		kind  strategy.Kind
	}
	var jobs []job
	for _, rt := range runtimes {
		for _, shape := range shapes {
			for _, kind := range strategy.Kinds {
				jobs = append(jobs, job{rt, shape, kind})
			}
		}
	}
	if len(jobs) < 8 {
		t.Fatalf("want >= 8 concurrent queries, built %d", len(jobs))
	}
	refs := map[jointree.Shape]*relation.Relation{}
	for _, shape := range shapes {
		refs[shape] = Reference(db, sessionQuery(t, db, shape, strategy.FP).Tree)
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			q := sessionQuery(t, db, j.shape, j.kind)
			rows, err := eng.Query(context.Background(), q, WithRuntime(j.rt))
			if err != nil {
				errc <- fmt.Errorf("%s/%v/%v: %w", j.rt, j.shape, j.kind, err)
				return
			}
			got, err := rows.All()
			if err != nil {
				errc <- fmt.Errorf("%s/%v/%v: %w", j.rt, j.shape, j.kind, err)
				return
			}
			if diff := relation.DiffMultiset(got, refs[j.shape]); diff != "" {
				errc <- fmt.Errorf("%s/%v/%v differs from reference: %s", j.rt, j.shape, j.kind, diff)
				return
			}
			res, ok := rows.Result()
			if !ok {
				errc <- fmt.Errorf("%s/%v/%v: Result unavailable after All", j.rt, j.shape, j.kind)
				return
			}
			if res.Runtime != j.rt {
				errc <- fmt.Errorf("%s/%v/%v: Result.Runtime = %q", j.rt, j.shape, j.kind, res.Runtime)
			}
		}(j)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("shared budget not settled after all queries: %d live bytes", live)
	}
}

// TestEngineQueueWaitRecorded asserts the admission queue actually
// queues: with one slot and a held cursor, a second query's Stats.QueueWait
// must cover the time the first query was streaming.
func TestEngineQueueWaitRecorded(t *testing.T) {
	db := sessionDB(t, 4, parkedCard)
	eng, err := Open(db, WithMaxConcurrent(1), WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)

	first, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Next() {
		t.Fatalf("first query produced no tuples: %v", first.Err())
	}
	// The slot is held while the first cursor is open; release it after a
	// measurable hold.
	const hold = 30 * time.Millisecond
	go func() {
		time.Sleep(hold)
		first.Close()
	}()
	rows, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	res, ok := rows.Result()
	if !ok {
		t.Fatal("Result unavailable after All")
	}
	if res.Stats.QueueWait < hold/2 {
		t.Errorf("QueueWait = %v, want >= %v (the admission hold)", res.Stats.QueueWait, hold/2)
	}
}

// TestEngineQueryCancelWhileQueued asserts a context cancelled in the
// admission queue abandons the query without executing it.
func TestEngineQueryCancelWhileQueued(t *testing.T) {
	db := sessionDB(t, 4, parkedCard)
	eng, err := Open(db, WithMaxConcurrent(1), WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	first, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if !first.Next() {
		t.Fatalf("first query produced no tuples: %v", first.Err())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := eng.Query(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query returned %v, want context.DeadlineExceeded", err)
	}
}

// TestRowsMidCloseNoLeaks is the mid-iteration abandonment audit on all
// three runtimes: consume a few tuples, Close, and assert no goroutines, no
// spill temp files, and no stranded shared-budget reservation remain. The
// forcing budget makes the spill runtime hold partition files and meter
// reservations at the moment of Close.
func TestRowsMidCloseNoLeaks(t *testing.T) {
	db := sessionDB(t, 6, 2000)
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			tmp := scopeTempDir(t)
			eng, err := Open(db, WithMaxConcurrent(2), WithEngineMemoryBudget(tinyBudget))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
			rows, err := eng.Query(context.Background(), q, WithRuntime(rt))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && rows.Next(); i++ {
				_ = rows.Tuple()
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := rows.Err(); err != nil {
				t.Errorf("Err after user Close = %v, want nil", err)
			}
			if left := spillTempFiles(t, tmp); len(left) != 0 {
				t.Errorf("mid-iteration Close left temp files: %v", left)
			}
			if live := eng.MemoryLive(); live != 0 {
				t.Errorf("mid-iteration Close stranded %d live bytes on the shared budget", live)
			}
			if err := atrest.Goroutines(before+2+eng.procs.Parked(), 5*time.Second); err != nil {
				t.Errorf("goroutine leak after mid-iteration Close: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowsContextCancelMidIteration cancels the query context (not the
// cursor) mid-iteration: Next must return false, Err must surface the
// cancellation, and nothing may leak.
func TestRowsContextCancelMidIteration(t *testing.T) {
	db := sessionDB(t, 6, 2000)
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			tmp := scopeTempDir(t)
			eng, err := Open(db, WithEngineMemoryBudget(tinyBudget))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
			rows, err := eng.Query(ctx, q, WithRuntime(rt))
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("no first tuple: %v", rows.Err())
			}
			cancel()
			for rows.Next() {
				// drain whatever was already in flight
			}
			if err := rows.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("Err after ctx cancel = %v, want context.Canceled", err)
			}
			rows.Close()
			if left := spillTempFiles(t, tmp); len(left) != 0 {
				t.Errorf("ctx cancel left temp files: %v", left)
			}
			if live := eng.MemoryLive(); live != 0 {
				t.Errorf("ctx cancel stranded %d live bytes on the shared budget", live)
			}
			if err := atrest.Goroutines(before+2+eng.procs.Parked(), 5*time.Second); err != nil {
				t.Errorf("goroutine leak after ctx cancel: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineSharedBudgetDrivesSpill pins the acceptance criterion that the
// *shared* budget, not a per-query one, decides spilling: a budget sized so
// one query runs fully resident must still spill once several queries hold
// residency concurrently.
func TestEngineSharedBudgetDrivesSpill(t *testing.T) {
	db := sessionDB(t, 5, 3000)
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(db, tree)
	q := Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 8}

	// Working set of one query: 5 relations x 3000 tuples x 24 wire bytes
	// ~= 360 KB of operands, of which at most ~330 KB are resident at once
	// (measured; the joins release partitions as they drain). Twelve
	// queries started together peak at 1.5-2.3 MB. 1 MiB fits one query
	// three times over but not several at once.
	const budget = 1 << 20

	single, err := Open(db, WithEngineMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	res, err := single.Exec(context.Background(), q, WithRuntime("spill"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesSpilled != 0 {
		t.Fatalf("single query spilled %d bytes under the %d budget; test budget needs retuning", res.Stats.BytesSpilled, budget)
	}
	single.Close()

	eng, err := Open(db, WithEngineMemoryBudget(budget), WithMaxConcurrent(12))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const concurrent = 12
	// Start every query and let each stream its first batch before any is
	// drained: all runs hold partitioning residency simultaneously, so the
	// combined balance crosses the shared budget even though each query
	// alone would fit.
	cursors := make([]*Rows, concurrent)
	for i := range cursors {
		rows, err := eng.Query(context.Background(), q, WithRuntime("spill"))
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = rows
	}
	var wg sync.WaitGroup
	errc := make(chan error, concurrent)
	for _, rows := range cursors {
		wg.Add(1)
		go func(rows *Rows) {
			defer wg.Done()
			got, err := rows.All()
			if err != nil {
				errc <- err
				return
			}
			if diff := relation.DiffMultiset(got, want); diff != "" {
				errc <- fmt.Errorf("concurrent spill result differs from reference: %s", diff)
			}
		}(rows)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if eng.SpilledBytes() == 0 {
		t.Errorf("%d concurrent queries on a shared %d-byte budget spilled nothing; the budget is not shared", concurrent, budget)
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("shared budget left %d live bytes after completion", live)
	}
}

// TestRowsAllAndIterAgree asserts the three consumption styles — Next
// loop, All, Iter — produce the same multiset as Exec.
func TestRowsAllAndIterAgree(t *testing.T) {
	db := sessionDB(t, 4, 500)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.RD)
	want := Reference(db, q.Tree)

	rows, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	byNext := relation.New("result", 0)
	for rows.Next() {
		byNext.Append(rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if diff := relation.DiffMultiset(byNext, want); diff != "" {
		t.Errorf("Next-loop result differs: %s", diff)
	}

	rows, err = eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	byAll, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if diff := relation.DiffMultiset(byAll, want); diff != "" {
		t.Errorf("All result differs: %s", diff)
	}

	// A streamed prefix plus All must partition the result: the tuple the
	// cursor already delivered through Next/Tuple is not re-delivered.
	rows, err = eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	split := relation.New("result", 0)
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d tuples: %v", i, rows.Err())
		}
		split.Append(rows.Tuple())
	}
	rest, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	split.Append(rest.Tuples...)
	if diff := relation.DiffMultiset(split, want); diff != "" {
		t.Errorf("Next-prefix + All remainder differs (current tuple re-delivered?): %s", diff)
	}

	rows, err = eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	byIter := relation.New("result", 0)
	for tp := range rows.Iter() {
		byIter.Append(tp)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if diff := relation.DiffMultiset(byIter, want); diff != "" {
		t.Errorf("Iter result differs: %s", diff)
	}

	// Early break through Iter closes the cursor.
	rows, err = eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rows.Iter() {
		if n++; n == 3 {
			break
		}
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after early Iter break = %v, want nil", err)
	}
}

// TestRowsReadBatch pins ReadBatch against the cursor step it shares with
// Next and All: it returns the rest of the batch Next left the cursor in,
// then whole batches; any mix of Next, ReadBatch and All partitions the
// result; and a verifying All after a ReadBatch fails as it does after Next.
func TestRowsReadBatch(t *testing.T) {
	db := sessionDB(t, 4, 2000)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.RD)
	want := Reference(db, q.Tree)

	// readBatch is ReadBatch, checked to return every tuple of the cursor's
	// batch that Next has not: the rest of the one it is in, else a whole one.
	readBatch := func(rows *Rows, got *relation.Relation) bool {
		var b relation.Batch
		rest := 0
		if rows.cur.batch != nil {
			rest = rows.cur.batch.Len() - rows.idx - 1
		}
		if !ReadBatch(rows, &b) {
			return false
		}
		if rest == 0 {
			rest = rows.cur.batch.Len()
		}
		if b.Len() != rest {
			t.Errorf("ReadBatch returned %d tuples, want the %d the cursor's batch has left", b.Len(), rest)
		}
		b.AppendTo(got)
		return true
	}
	// Each script consumes a prefix one step per letter — n for Next, b
	// for ReadBatch — and the rest as its last letter says: by ReadBatch,
	// Next or All.
	for _, script := range []string{"b", "nnnb", "n", "nnnA", "bA", "nbnnbnbA", "nnbbnbnb"} {
		rows, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := relation.New("result", 0)
		for i, step := range script {
			last := i == len(script)-1
			switch step {
			case 'n':
				for rows.Next() {
					got.Append(rows.Tuple())
					if !last {
						break
					}
				}
			case 'b':
				for readBatch(rows, got) && last {
				}
			case 'A':
				rest, err := rows.All()
				if err != nil {
					t.Fatalf("%s: %v", script, err)
				}
				got.Append(rest.Tuples...)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		rows.Close()
		if diff := relation.DiffMultiset(got, want); diff != "" {
			t.Errorf("%s: result differs from reference: %s", script, diff)
		}
	}

	// A verifying All needs the whole stream, whichever read took a part.
	var errs []string
	for _, read := range []func(*Rows) bool{(*Rows).Next, func(r *Rows) bool { return ReadBatch(r, new(relation.Batch)) }} {
		rows, err := eng.Query(context.Background(), q, WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		if !read(rows) {
			t.Fatalf("no first tuple: %v", rows.Err())
		}
		_, err = rows.All()
		if err == nil {
			t.Fatal("verifying All after a partial read must fail")
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("verifying All fails with %q after ReadBatch, %q after Next", errs[1], errs[0])
	}
}

// TestRowsIterSurfacesExternalCancel asserts Iter's automatic Close does
// not mask an external context cancellation: a truncated stream must not
// read as a complete one.
func TestRowsIterSurfacesExternalCancel(t *testing.T) {
	db := sessionDB(t, 6, 2000)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	rows, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rows.Iter() {
		if n++; n == 5 {
			cancel() // external cancellation, not a user Close
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after external cancel through Iter = %v, want context.Canceled", err)
	}
}

// TestRowsCloseDuringIteration: one goroutine loops Next/Tuple (even
// trials) or ReadBatch (odd ones) while another Closes the cursor
// mid-stream. Tuple takes no lock and ReadBatch's batch is read after it
// returns, so under -race this pins that Close never touches what either
// hands out; every tuple handed out must still be one of the result's, and
// iteration must stop cleanly.
func TestRowsCloseDuringIteration(t *testing.T) {
	db := sessionDB(t, 4, parkedCard)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	want := map[relation.Tuple]int{}
	for _, tp := range Reference(db, q.Tree).Tuples {
		want[tp]++
	}
	for trial := 0; trial < 5; trial++ {
		rows, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		seen := map[relation.Tuple]int{}
		done := make(chan struct{})
		// read hands the cursor's next tuple (or batch) to seen and
		// reports how many it handed, 0 once iteration stopped.
		var b relation.Batch
		read := func() int {
			if trial%2 == 0 {
				if !rows.Next() {
					return 0
				}
				seen[rows.Tuple()]++
				return 1
			}
			b.Reset()
			if !ReadBatch(rows, &b) {
				return 0
			}
			for i := range b.Len() {
				seen[b.Tuple(i)]++
			}
			return b.Len()
		}
		go func() {
			defer close(done)
			for n, k := 0, read(); k > 0; k = read() {
				if n <= 100*trial && n+k > 100*trial {
					close(started)
				}
				n += k
			}
		}()
		select {
		case <-started:
		case <-done:
			// A reader that raced through the whole stream closed both;
			// only a stream that ended short of the trial's tuple fails.
			select {
			case <-started:
			default:
				t.Fatalf("trial %d: the stream ended before Close: %v", trial, rows.Err())
			}
		}
		rows.Close()
		<-done
		for tp, c := range seen {
			if c > want[tp] {
				t.Fatalf("trial %d: Tuple returned %v %d times, the result holds it %d times", trial, tp, c, want[tp])
			}
		}
		if err := rows.Err(); err != nil {
			t.Errorf("trial %d: Err after user Close = %v, want nil", trial, err)
		}
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("Close during iteration stranded %d live bytes on the shared budget", live)
	}
}

// TestRowsAllVerifyRejectsPartialConsumption asserts a verifying All on a
// cursor that already handed out tuples fails loudly instead of reporting
// a spurious mismatch on the remainder.
func TestRowsAllVerifyRejectsPartialConsumption(t *testing.T) {
	db := sessionDB(t, 4, 300)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	rows, err := eng.Query(context.Background(), q, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first tuple: %v", rows.Err())
	}
	if _, err := rows.All(); err == nil {
		t.Fatal("verifying All after Next must fail")
	}
}

// TestEngineExecVerify asserts Engine.Exec honors WithVerify and returns
// the materialized relation with session stats attached.
func TestEngineExecVerify(t *testing.T) {
	db := sessionDB(t, 4, 300)
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.WideBushy, strategy.SE)
	res, err := eng.Exec(context.Background(), q, WithRuntime("parallel"), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Result.Card() == 0 {
		t.Fatal("Engine.Exec returned no materialized result")
	}
	if res.Stats.ResultTuples != res.Result.Card() {
		t.Errorf("Stats.ResultTuples = %d, materialized card = %d", res.Stats.ResultTuples, res.Result.Card())
	}
}

// TestEngineClosedRejectsQueries pins the Close contract.
func TestEngineClosedRejectsQueries(t *testing.T) {
	db := sessionDB(t, 4, 100)
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	q := sessionQuery(t, db, jointree.WideBushy, strategy.FP)
	if _, err := eng.Query(context.Background(), q); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Query after Close returned %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Exec(context.Background(), q); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Exec after Close returned %v, want ErrEngineClosed", err)
	}
}

// TestEngineDefaultsApplied asserts the engine's default runtime and
// params reach queries that specify neither.
func TestEngineDefaultsApplied(t *testing.T) {
	db := sessionDB(t, 4, 100)
	eng, err := Open(db, WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	// No DB, no Params on the query: the engine supplies both.
	res, err := eng.Exec(context.Background(), Query{Tree: tree, Strategy: strategy.FP, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "parallel" {
		t.Errorf("Result.Runtime = %q, want the engine default %q", res.Runtime, "parallel")
	}
	if diff := relation.DiffMultiset(res.Result, Reference(db, tree)); diff != "" {
		t.Errorf("result differs from reference: %s", diff)
	}
}

// TestOpenRejectsBadConfig pins Open's validation.
func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("Open(nil) must fail")
	}
	db := sessionDB(t, 4, 10)
	if _, err := Open(db, WithEngineRuntime("no-such-runtime")); err == nil {
		t.Error("Open with unknown default runtime must fail")
	}
}
