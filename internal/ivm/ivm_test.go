package ivm

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// harness holds one view under test plus the shadow base relations the
// sequential reference recomputes from.
type harness struct {
	db     *wisconsin.Database
	tree   *jointree.Node
	view   *View
	shadow []*relation.Relation
	rng    *rand.Rand
}

func newHarness(t *testing.T, shape jointree.Shape, strat strategy.Kind, relations, card int, seed int64, run parallel.Config, cfg Config) *harness {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: seed})
	if err != nil {
		t.Fatalf("wisconsin.Chain: %v", err)
	}
	tree, err := jointree.BuildShape(shape, relations)
	if err != nil {
		t.Fatalf("BuildShape: %v", err)
	}
	plan, err := strategy.Plan(strat, tree, strategy.Config{Procs: 2 * relations, Card: float64(card)})
	if err != nil {
		t.Fatalf("strategy.Plan: %v", err)
	}
	shadow := make([]*relation.Relation, relations)
	for i := range shadow {
		r := db.Relation(i)
		cp := relation.NewWithCap(r.Name, r.TupleBytes, r.Card())
		cp.Append(r.Tuples...)
		shadow[i] = cp
	}
	view, err := New(plan, func(leaf int) *relation.Relation { return db.Relation(leaf) }, run, cfg)
	if err != nil {
		t.Fatalf("ivm.New: %v", err)
	}
	t.Cleanup(func() { view.Close() })
	return &harness{db: db, tree: tree, view: view, shadow: shadow, rng: rand.New(rand.NewSource(seed * 31))}
}

// randomDelta builds a delta for relation rel: k tuples deleted from the
// shadow (keeping it in sync) and k fresh insertions that still join
// (clones of surviving tuples with a distinct Check).
func (h *harness) randomDelta(rel, k int) Delta {
	d := Delta{Rel: rel}
	sh := h.shadow[rel]
	for i := 0; i < k && len(sh.Tuples) > 1; i++ {
		j := h.rng.Intn(len(sh.Tuples))
		d.Delete = append(d.Delete, sh.Tuples[j])
		sh.Tuples[j] = sh.Tuples[len(sh.Tuples)-1]
		sh.Tuples = sh.Tuples[:len(sh.Tuples)-1]
	}
	for i := 0; i < k; i++ {
		src := sh.Tuples[h.rng.Intn(len(sh.Tuples))]
		src.Check = src.Check*31 + uint64(h.rng.Intn(1<<30)) + 1
		d.Insert = append(d.Insert, src)
		sh.Append(src)
	}
	return d
}

func (h *harness) verify(t *testing.T, label string) {
	t.Helper()
	got, err := h.view.Rows()
	if err != nil {
		t.Fatalf("%s: Rows: %v", label, err)
	}
	want := jointree.Reference(h.tree, func(leaf int) *relation.Relation { return h.shadow[leaf] })
	if diff := relation.DiffMultiset(got, want); diff != "" {
		t.Fatalf("%s: view diverged from recompute: %s", label, diff)
	}
	if h.view.ResultCard() != want.Card() {
		t.Fatalf("%s: ResultCard = %d, want %d", label, h.view.ResultCard(), want.Card())
	}
}

// TestViewSmoke is the CI smoke (make ivm-smoke): create a view over a
// left-linear FP plan, apply a mixed insert/delete batch, and verify the
// incrementally maintained result against recompute-from-scratch.
func TestViewSmoke(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 4, 300, 1995, parallel.Config{}, Config{})
	h.verify(t, "initial population")
	for round := 0; round < 3; round++ {
		deltas := []Delta{h.randomDelta(0, 20), h.randomDelta(2, 15)}
		res, err := h.view.Apply(context.Background(), deltas...)
		if err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		if res.Unmatched != 0 {
			t.Fatalf("round %d: %d unmatched deletes", round, res.Unmatched)
		}
		h.verify(t, "after mixed delta")
	}
}

// TestViewAcrossShapesAndStrategies checks the maintenance network is
// plan-shape agnostic: every strategy's plan, on several tree shapes,
// maintains the same multiset the sequential reference recomputes.
func TestViewAcrossShapesAndStrategies(t *testing.T) {
	for _, strat := range strategy.Kinds {
		for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy, jointree.RightLinear} {
			h := newHarness(t, shape, strat, 5, 120, 7, parallel.Config{BatchTuples: 32}, Config{})
			h.verify(t, "population")
			for round := 0; round < 2; round++ {
				var deltas []Delta
				for rel := 0; rel < 5; rel += 2 {
					deltas = append(deltas, h.randomDelta(rel, 10))
				}
				if _, err := h.view.Apply(context.Background(), deltas...); err != nil {
					t.Fatalf("%v/%v: Apply: %v", strat, shape, err)
				}
			}
			h.verify(t, "after deltas")
			h.view.Close()
		}
	}
}

// TestViewSameTupleInsertDelete pins the in-round ordering contract:
// inserts apply before deletes, so inserting and deleting the same tuple
// in one Apply nets out, and deleting a tuple inserted in a previous
// round retracts it.
func TestViewSameTupleInsertDelete(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 3, 100, 3, parallel.Config{}, Config{})
	fresh := h.shadow[1].Tuples[0]
	fresh.Check = fresh.Check*31 + 12345
	if _, err := h.view.Apply(context.Background(), Delta{Rel: 1, Insert: []relation.Tuple{fresh}, Delete: []relation.Tuple{fresh}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	h.verify(t, "insert+delete same tuple")
	if _, err := h.view.Apply(context.Background(), Delta{Rel: 1, Insert: []relation.Tuple{fresh}}); err != nil {
		t.Fatalf("Apply insert: %v", err)
	}
	h.shadow[1].Append(fresh)
	h.verify(t, "insert")
	res, err := h.view.Apply(context.Background(), Delta{Rel: 1, Delete: []relation.Tuple{fresh}})
	if err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
	if res.Unmatched != 0 {
		t.Fatalf("delete of a previously inserted tuple reported unmatched")
	}
	sh := h.shadow[1]
	sh.Tuples = sh.Tuples[:len(sh.Tuples)-1]
	h.verify(t, "delete")
}

// TestViewUnmatchedDelete checks a delete of an absent base tuple is
// dropped (counted, not propagated) and leaves the result intact.
func TestViewUnmatchedDelete(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 3, 80, 11, parallel.Config{}, Config{})
	ghost := relation.Tuple{Unique1: 1 << 40, Unique2: 1 << 40, Check: 99}
	res, err := h.view.Apply(context.Background(), Delta{Rel: 0, Delete: []relation.Tuple{ghost}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Unmatched != 1 {
		t.Fatalf("Unmatched = %d, want 1", res.Unmatched)
	}
	h.verify(t, "after ghost delete")
}

// TestViewChanges subscribes a change stream and checks each round's
// signed changes telescope to the observed result difference.
func TestViewChanges(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 3, 150, 5, parallel.Config{}, Config{})
	stream := h.view.Changes()
	defer stream.Close()
	before, err := h.view.Rows()
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.view.Apply(context.Background(), h.randomDelta(0, 25))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	net := make(map[relation.Tuple]int64)
	for _, tp := range before.Tuples {
		net[tp]++
	}
	seen := 0
	for seen < res.Changes && stream.Next() {
		c := stream.Change()
		net[c.Tuple] += int64(c.Sign)
		seen++
	}
	if seen != res.Changes {
		t.Fatalf("change stream delivered %d changes, ApplyResult says %d", seen, res.Changes)
	}
	after, err := h.view.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range after.Tuples {
		net[tp]--
	}
	for tp, n := range net {
		if n != 0 {
			t.Fatalf("changes do not telescope: tuple %v off by %d", tp, n)
		}
	}
}

// TestViewChangesSubscribeMidRound opens a change stream while an Apply is
// in flight, at a varying point of the round. A stream carries whole rounds
// or it is useless to a replica: the first chunk it delivers must be a
// complete round (the one in flight, if the subscription beat it to the
// view's lock), never the tail of one.
func TestViewChangesSubscribeMidRound(t *testing.T) {
	const rels, k = 4, 1500
	h := newHarness(t, jointree.LeftLinear, strategy.FP, rels, 4000, 1995, parallel.Config{BatchTuples: 16}, Config{})
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		// A closed subscriber is dropped by a round that has changes to hand
		// it; start every trial from none, so the round below decides whether
		// to record changes on the new subscription alone.
		for h.view.coll.hasSubs() {
			if _, err := h.view.Apply(ctx, h.randomDelta(rels-1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		delta := h.randomDelta(rels-1, k) // the top join's relation: one result change per delta tuple
		var res ApplyResult
		var err error
		done := make(chan struct{})
		go func() {
			res, err = h.view.Apply(ctx, delta)
			close(done)
		}()
		for i := 0; i < trial%40; i++ {
			runtime.Gosched()
		}
		stream := h.view.Changes()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		select {
		case chunk := <-stream.ch:
			if len(chunk) != res.Changes {
				t.Fatalf("trial %d: stream opened mid-round got %d of the round's %d changes", trial, len(chunk), res.Changes)
			}
		default: // subscribed after the round: it owes this stream nothing
		}
		stream.Close()
	}
	h.verify(t, "after the trials")
}

// TestViewMeterSettles charges a meter child and checks the shared live
// balance returns to zero on Close — the leak-regression contract the
// engine relies on.
func TestViewMeterSettles(t *testing.T) {
	root := spill.NewMeter(1 << 30)
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 4, 200, 13, parallel.Config{}, Config{Meter: root.Child()})
	if root.Live() == 0 {
		t.Fatal("resident view charged nothing to the meter")
	}
	if h.view.Resident() != root.Live() {
		t.Fatalf("Resident() = %d, meter live = %d", h.view.Resident(), root.Live())
	}
	if _, err := h.view.Apply(context.Background(), h.randomDelta(0, 30)); err != nil {
		t.Fatal(err)
	}
	h.view.Close()
	if live := root.Live(); live != 0 {
		t.Fatalf("meter live = %d after Close, want 0", live)
	}
}

// TestViewCloseUnblocksApply wedges Apply behind a change-stream
// subscriber that never consumes, then checks Close unblocks it with
// ErrViewClosed and every network goroutine exits.
func TestViewCloseUnblocksApply(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 3, 150, 17, parallel.Config{}, Config{})
	stream := h.view.Changes() // never consumed: rounds stall once its buffer fills
	defer stream.Close()
	applyErr := make(chan error, 1)
	go func() {
		for {
			if _, err := h.view.Apply(context.Background(), h.randomDelta(0, 5)); err != nil {
				applyErr <- err
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let Apply wedge on the full subscriber
	h.view.Close()
	select {
	case err := <-applyErr:
		if err != ErrViewClosed {
			t.Fatalf("Apply returned %v, want ErrViewClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Apply still blocked 5s after Close")
	}
	if _, err := h.view.Rows(); err != ErrViewClosed {
		t.Fatalf("Rows on closed view returned %v, want ErrViewClosed", err)
	}
	if err := atrest.Goroutines(before+2, 5*time.Second); err != nil {
		t.Fatalf("goroutines leaked after close: %v", err)
	}
}

// TestViewRowsDuringClose: Rows joins the top join's tables, which Close
// releases, so Close must wait out a Rows in progress. Goroutines loop on
// Rows while Close runs; every call returns the exact multiset or
// ErrViewClosed, and none reads a released table (which -race and
// -tags pooldebug would catch).
func TestViewRowsDuringClose(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		h := newHarness(t, jointree.LeftLinear, strategy.FP, 4, 2000, int64(trial+1), parallel.Config{}, Config{})
		want := jointree.Reference(h.tree, func(leaf int) *relation.Relation { return h.shadow[leaf] })
		errs := make(chan error, 4)
		var wg sync.WaitGroup
		for g := 0; g < cap(errs); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					got, err := h.view.Rows()
					if errors.Is(err, ErrViewClosed) {
						return
					}
					if err == nil {
						if diff := relation.DiffMultiset(got, want); diff != "" {
							err = errors.New(diff)
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(trial) * time.Millisecond)
		h.view.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("trial %d: Rows during Close: %v", trial, err)
		}
	}
}

// TestViewApplyCancelledContext: an Apply whose context is already done
// fails with the context's error before injecting anything, and the view
// stays as it was and keeps serving.
func TestViewApplyCancelledContext(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 3, 100, 3, parallel.Config{}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := h.shadow[0].Tuples[0]
	fresh.Check = fresh.Check*31 + 1
	for i := 0; i < 20; i++ {
		if _, err := h.view.Apply(ctx, Delta{Rel: 0, Insert: []relation.Tuple{fresh}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Apply with a cancelled context returned %v, want context.Canceled", err)
		}
		h.verify(t, "after a cancelled Apply")
	}
	if _, err := h.view.Apply(context.Background(), Delta{Rel: 0, Insert: []relation.Tuple{fresh}}); err != nil {
		t.Fatalf("Apply after the cancelled ones: %v", err)
	}
	h.shadow[0].Append(fresh)
	h.verify(t, "after the next Apply")
}

// TestViewGoroutines pins a view's goroutines to its hosts plus the
// collector. On the view_refresh shape (10 relations, left-linear FP, 20
// plan processors) the 20 join processes form 18 hosts on 2 slots (every
// join's processes span both) and 9 on 1.
func TestViewGoroutines(t *testing.T) {
	for _, c := range []struct{ slots, want int }{{2, 19}, {1, 10}} {
		before := runtime.NumGoroutine()
		h := newHarness(t, jointree.LeftLinear, strategy.FP, 10, 200, 1995, parallel.Config{MaxProcs: c.slots}, Config{})
		if got := runtime.NumGoroutine() - before; got > c.want {
			t.Errorf("%d slots: the view runs %d goroutines, want at most %d", c.slots, got, c.want)
		}
		h.view.Close()
	}
}

// TestViewRoundAllocs pins what one steady-state round allocates: an
// insert+delete round over every relation of a 10×2000 FP view, which
// leaves the view as it found it. Before views ran on package parallel's
// hosts this read 0 (0.04 mallocs per round, averaged over 500).
func TestViewRoundAllocs(t *testing.T) {
	h := newHarness(t, jointree.LeftLinear, strategy.FP, 10, 2000, 1995, parallel.Config{}, Config{})
	var deltas []Delta
	for rel := 0; rel < 10; rel++ {
		ins := make([]relation.Tuple, 64)
		for i := range ins {
			ins[i] = h.shadow[rel].Tuples[i*31]
			ins[i].Check = ins[i].Check*31 + 1
		}
		deltas = append(deltas, Delta{Rel: rel, Insert: ins, Delete: ins})
	}
	round := func() {
		if _, err := h.view.Apply(context.Background(), deltas...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // until scratch buffers and free lists settle
		round()
	}
	allocs := testing.AllocsPerRun(50, round)
	if allocs > 0 {
		t.Errorf("a round allocates %.0f times, want 0", allocs)
	}
	h.verify(t, "after the rounds")
}
