package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// admitAsync runs admit in a goroutine and reports its outcome on the
// returned channel.
func admitAsync(p *admissionQueue, ctx context.Context, t *admitTicket) chan error {
	ch := make(chan error, 1)
	go func() { ch <- p.admit(ctx, t) }()
	return ch
}

// waitQueued polls until the queue has n waiters.
func waitQueued(t *testing.T, p *admissionQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		have := len(p.waiters)
		p.mu.Unlock()
		if have >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued waiters (have %d)", n, have)
		}
		time.Sleep(time.Millisecond)
	}
}

func spillTicket(root *spill.Meter, peak int64, wall time.Duration) *admitTicket {
	return &admitTicket{
		est:   queryEstimate{wall: wall, peakBytes: peak},
		meter: root.Child(),
	}
}

// TestCostAdmitCancelQueuedHeadUnblocksQueue is the regression test for a
// context firing while its query is *queued*: cancelling the memory-blocked
// head waiter must re-evaluate the queue, because head-of-line blocking on
// memory was holding every other spill waiter behind it — one of them may
// fit right now. Pre-fix, the departing waiter was only removed, and the
// admissible waiter stayed stranded until some unrelated release.
func TestCostAdmitCancelQueuedHeadUnblocksQueue(t *testing.T) {
	root := spill.NewMeter(100)
	p, err := newAdmissionQueue("cost", -1, root)
	if err != nil {
		t.Fatal(err)
	}

	// A runs, reserving 60 of the 100-byte budget.
	a := spillTicket(root, 60, 5*time.Millisecond)
	if err := p.admit(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if a.reserved != 60 {
		t.Fatalf("ticket A reserved %d bytes, want 60", a.reserved)
	}

	// B (cheaper, so always the queue head) needs 50: blocked on memory.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	b := spillTicket(root, 50, 10*time.Millisecond)
	chB := admitAsync(p, ctxB, b)
	waitQueued(t, p, 1)

	// C needs 30 — it would fit (60+30 <= 100) but the memory-blocked head
	// B holds its place against other memory consumers.
	c := spillTicket(root, 30, 20*time.Millisecond)
	chC := admitAsync(p, context.Background(), c)
	waitQueued(t, p, 2)

	select {
	case err := <-chC:
		t.Fatalf("C admitted while blocked behind the queue head: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// B's context fires while it is queued. C must be admitted promptly.
	cancelB()
	if err := <-chB; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued admit returned %v, want context.Canceled", err)
	}
	select {
	case err := <-chC:
		if err != nil {
			t.Fatalf("C's admit failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("C stranded after the queued head's context fired (queue not re-evaluated)")
	}
	if c.reserved != 30 {
		t.Errorf("C admitted with reservation %d, want 30", c.reserved)
	}
}

// TestCostAbandonGrantKicksMemoryWaiters is the regression test for the
// narrower race: the queued context fires in the same instant a grant
// lands. The undo path must release the ticket's slot AND its memory
// reservation AND kick the queue afterwards — releasing the slot first
// re-evaluates waiters while the doomed reservation is still charged, so
// without the final kick a memory-blocked waiter stays stranded even
// though the bytes it needs just came free.
func TestCostAbandonGrantKicksMemoryWaiters(t *testing.T) {
	root := spill.NewMeter(100)
	p, err := newAdmissionQueue("cost", -1, root)
	if err != nil {
		t.Fatal(err)
	}

	// A1 keeps running throughout, holding 60 bytes.
	a1 := spillTicket(root, 60, 5*time.Millisecond)
	if err := p.admit(context.Background(), a1); err != nil {
		t.Fatal(err)
	}
	// A2 is the granted-then-cancelled ticket, holding the remaining 40.
	a2 := spillTicket(root, 40, 5*time.Millisecond)
	if err := p.admit(context.Background(), a2); err != nil {
		t.Fatal(err)
	}
	// B needs 40: blocked until A2's reservation returns.
	b := spillTicket(root, 40, 10*time.Millisecond)
	chB := admitAsync(p, context.Background(), b)
	waitQueued(t, p, 1)

	// A2's caller observed its context cancelled after the grant landed;
	// the policy must undo the admission completely.
	p.abandonGrant(a2)

	select {
	case err := <-chB:
		if err != nil {
			t.Fatalf("B's admit failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("B stranded after an abandoned grant settled its reservation (no kick)")
	}
	if live := root.Live(); live != 60+40 {
		t.Errorf("root meter live = %d after abandon+readmit, want 100", live)
	}
}

// TestEngineCostAdmissionTimeoutChurn hammers the queued-cancel path the
// way mjload's open-loop timeouts do: many concurrent spill queries under
// the cost policy with contexts that routinely expire while queued. The
// engine must come out of the churn with zero stranded reservation bytes
// and a working admission queue.
func TestEngineCostAdmissionTimeoutChurn(t *testing.T) {
	db := sessionDB(t, 4, 400)
	eng, err := Open(db,
		WithMaxConcurrent(2),
		WithEngineMemoryBudget(64<<10),
		WithAdmissionPolicy("cost"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 4}

	rng := rand.New(rand.NewSource(9))
	timeouts := make([]time.Duration, 48)
	for i := range timeouts {
		timeouts[i] = time.Duration(rng.Intn(4000)) * time.Microsecond
	}
	var wg sync.WaitGroup
	for _, d := range timeouts {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			rows, err := eng.Query(ctx, q, WithRuntime("spill"))
			if err != nil {
				return // timed out while queued: the path under test
			}
			rows.All()
		}(d)
	}
	wg.Wait()

	// Every reservation the churn stranded would surface here: either as a
	// nonzero live balance, or as a fresh spill query stuck in admission.
	deadline := time.Now().Add(5 * time.Second)
	for eng.MemoryLive() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d bytes after timeout churn, want 0", live)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows, err := eng.Query(ctx, q, WithRuntime("spill"))
	if err != nil {
		t.Fatalf("fresh query after churn not admitted: %v", err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatalf("fresh query after churn failed: %v", err)
	}
}

// TestAdmissionOrder pins the order each policy admits a queue in. One slot
// is held by a running query while three spill queries queue, each cheaper
// than the one before it: "fifo" admits them in arrival order and reserves
// no memory, "cost" admits the cheapest first and reserves each one's
// estimated peak.
func TestAdmissionOrder(t *testing.T) {
	db := sessionDB(t, 6, 200)
	query := func(k int) Query {
		tree, err := jointree.BuildShape(jointree.WideBushy, k)
		if err != nil {
			t.Fatal(err)
		}
		return Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 8}
	}
	arrivals := []int{6, 4, 2} // relations joined: estimates fall with arrival
	for policy, want := range map[string][]int{"fifo": arrivals, "cost": {2, 4, 6}} {
		t.Run(policy, func(t *testing.T) {
			// A work unit priced at a millisecond puts the estimates seconds
			// apart, far beyond what aging discounts while the test queues.
			eng, err := Open(db, WithMaxConcurrent(1), WithAdmissionPolicy(policy),
				WithCalibration(costmodel.Calibration{UnitNanos: 1e6}), WithEngineRuntime("spill"))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			running, err := eng.Query(context.Background(), query(2))
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg    sync.WaitGroup
				mu    sync.Mutex
				order []int
			)
			errc := make(chan error, len(arrivals))
			for i, k := range arrivals {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rows, err := eng.Query(context.Background(), query(k))
					if err != nil {
						errc <- err
						return
					}
					// The slot is this query's until All drains it, so the
					// next admission cannot overtake this append.
					mu.Lock()
					order = append(order, k)
					mu.Unlock()
					if _, err := rows.All(); err != nil {
						errc <- err
						return
					}
					res, _ := rows.Result()
					if reserved := res.Stats.MemReserved; (reserved > 0) != (policy == "cost") {
						errc <- fmt.Errorf("%d-relation query reserved %d bytes", k, reserved)
					}
				}()
				waitQueued(t, eng.queue, i+1)
			}
			running.Close()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			if !slices.Equal(order, want) {
				t.Errorf("admitted %v (relations joined), want %v", order, want)
			}
		})
	}
}

// TestEstimateScanTuples: admission sums the scanned cardinalities with a
// walk of the tree that allocates nothing. Over every shape and strategy,
// on relations of unequal sizes, the estimate is bit-identical to the one
// summed over jointree.Leaves in leaf order.
func TestEstimateScanTuples(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Cards: []int{1000, 4000, 250, 2000, 500, 3000, 1500, 750}, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, shape := range jointree.Shapes {
		for _, kind := range strategy.Kinds {
			q := sessionQuery(t, db, shape, kind)
			q.Params = costmodel.Default()
			plan, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			got := eng.estimateQuery(q, Options{Runtime: "parallel"}, plan)
			var leaves float64
			for _, l := range jointree.Leaves(q.Tree) {
				leaves += float64(db.Card(l.Leaf))
			}
			want := queryEstimate{units: jointree.SubtreeWorkSpan(q.Tree, db.SpanCard) + q.Params.ScanUnits*leaves}
			want.wall = time.Duration(want.units * defaultUnitNanos / float64(eng.procs.Size()))
			if math.Float64bits(got.units) != math.Float64bits(want.units) || got != want {
				t.Errorf("%v %v: estimate %+v, summed over the leaves %+v", shape, kind, got, want)
			}
		}
	}
}
