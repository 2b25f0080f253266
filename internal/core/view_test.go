package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// applyAndShadow applies a small churn delta through the view and mirrors
// it on a shadow copy of the base relation so the reference recompute
// stays in sync.
func applyAndShadow(t *testing.T, v *View, shadow *relation.Relation, rel int) {
	t.Helper()
	ins := shadow.Tuples[0]
	ins.Check = ins.Check*31 + 7
	del := shadow.Tuples[len(shadow.Tuples)-1]
	if _, err := v.Apply(context.Background(), ivm.Delta{
		Rel:    rel,
		Insert: []relation.Tuple{ins},
		Delete: []relation.Tuple{del},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	shadow.Tuples = shadow.Tuples[:len(shadow.Tuples)-1]
	shadow.Append(ins)
}

// TestEngineCreateView exercises the session-level lifecycle: create,
// verify against recompute, apply deltas, verify again, close, meter zero.
func TestEngineCreateView(t *testing.T) {
	for _, policy := range AdmissionPolicies {
		t.Run(policy, func(t *testing.T) {
			db := sessionDB(t, 4, 400)
			eng, err := Open(db, WithAdmissionPolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			q := sessionQuery(t, db, jointree.LeftLinear, strategy.FP)

			v, err := eng.CreateView(context.Background(), q)
			if err != nil {
				t.Fatalf("CreateView: %v", err)
			}
			shadow := relation.NewWithCap("shadow", relation.TupleWireBytes, db.Card(1))
			shadow.Append(db.Relation(1).Tuples...)
			rel := func(leaf int) *relation.Relation {
				if leaf == 1 {
					return shadow
				}
				return db.Relation(leaf)
			}
			check := func(label string) {
				got, err := v.Rows(context.Background())
				if err != nil {
					t.Fatalf("%s: Rows: %v", label, err)
				}
				want := jointree.Reference(q.Tree, rel)
				if diff := relation.DiffMultiset(got, want); diff != "" {
					t.Fatalf("%s: view diverged: %s", label, diff)
				}
			}
			check("population")
			if eng.MemoryLive() == 0 {
				t.Error("resident view charged nothing to the engine budget")
			}
			for i := 0; i < 3; i++ {
				applyAndShadow(t, v, shadow, 1)
				check("after delta")
			}
			v.Close()
			if live := eng.MemoryLive(); live != 0 {
				t.Errorf("engine meter live = %d after View.Close, want 0", live)
			}
			// Closing again, and engine close after, must both be no-ops.
			v.Close()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineCreateViewAfterClose pins the closed-engine path.
func TestEngineCreateViewAfterClose(t *testing.T) {
	db := sessionDB(t, 3, 64)
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.CreateView(context.Background(), sessionQuery(t, db, jointree.LeftLinear, strategy.FP)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("CreateView on closed engine returned %v, want ErrEngineClosed", err)
	}
}

// TestEngineCreateViewUnknownRuntime: a view resolves its options like a
// query, so a runtime name nobody registered is refused, not ignored — and
// the refusal comes before admission, leaving nothing charged.
func TestEngineCreateViewUnknownRuntime(t *testing.T) {
	db := sessionDB(t, 3, 64)
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.CreateView(context.Background(), sessionQuery(t, db, jointree.LeftLinear, strategy.FP), WithRuntime("no-such-runtime"))
	if err == nil || !strings.Contains(err.Error(), "no-such-runtime") {
		t.Fatalf("CreateView with an unknown runtime returned %v, want an error naming it", err)
	}
	if used := eng.meter.Live(); used != 0 {
		t.Errorf("refused view left %d bytes charged", used)
	}
}

// TestEngineShutdownWithViewMidApply is the leak regression the issue asks
// for: Engine.Shutdown while a view has an Apply wedged (its change-stream
// subscriber stopped consuming) must force the view down, fail the Apply
// with ivm.ErrViewClosed, settle the shared meter to zero, and leak no
// goroutines.
func TestEngineShutdownWithViewMidApply(t *testing.T) {
	before := runtime.NumGoroutine()
	db := sessionDB(t, 4, 400)
	eng, err := Open(db, WithAdmissionPolicy("cost"))
	if err != nil {
		t.Fatal(err)
	}
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.FP)
	v, err := eng.CreateView(context.Background(), q)
	if err != nil {
		t.Fatalf("CreateView: %v", err)
	}
	stream := v.Changes() // never consumed: Apply wedges once its buffer fills
	defer stream.Close()
	applyErr := make(chan error, 1)
	go func() {
		shadow := relation.NewWithCap("shadow", relation.TupleWireBytes, db.Card(0))
		shadow.Append(db.Relation(0).Tuples...)
		for {
			ins := shadow.Tuples[0]
			ins.Check++
			shadow.Append(ins)
			if _, err := v.Apply(context.Background(), ivm.Delta{Rel: 0, Insert: []relation.Tuple{ins}}); err != nil {
				applyErr <- err
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let Apply wedge behind the subscriber

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { eng.Shutdown(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung on a view mid-apply")
	}
	select {
	case err := <-applyErr:
		if !errors.Is(err, ivm.ErrViewClosed) {
			t.Errorf("wedged Apply returned %v, want ivm.ErrViewClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Apply still blocked after engine shutdown")
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d after shutdown with open view, want 0", live)
	}
	if err := atrest.Goroutines(before+4, 10*time.Second); err != nil {
		t.Errorf("goroutines after shutdown (leak): %v", err)
	}
}

// TestEngineViewsAndQueriesShareBudget runs a query while a view is
// resident: both charge the same root meter, and closing both settles it.
func TestEngineViewsAndQueriesShareBudget(t *testing.T) {
	db := sessionDB(t, 4, 400)
	eng, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.FP)
	v, err := eng.CreateView(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	viewCharge := eng.MemoryLive()
	if viewCharge == 0 {
		t.Fatal("view charged nothing")
	}
	res, err := eng.Exec(context.Background(), q, WithRuntime("spill"), WithVerify())
	if err != nil {
		t.Fatalf("Exec alongside view: %v", err)
	}
	if res.Result.Card() != v.ResultCard() {
		t.Errorf("query result card %d != view card %d", res.Result.Card(), v.ResultCard())
	}
	if live := eng.MemoryLive(); live != viewCharge {
		t.Errorf("after query settled, meter live = %d, want the view's %d", live, viewCharge)
	}
	v.Close()
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("meter live = %d after closing view, want 0", live)
	}
}

// TestEngineViewSharesProcessorSlots: a view's join processes are hosted on
// the engine's processor slots like a query's. On an engine with one slot,
// delta rounds against a view run while queries execute, and the view and
// every query stay equal to the reference.
func TestEngineViewSharesProcessorSlots(t *testing.T) {
	db := sessionDB(t, 4, 400)
	eng, err := Open(db, WithEngineProcs(1), WithEngineRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := sessionQuery(t, db, jointree.LeftLinear, strategy.FP)
	v, err := eng.CreateView(context.Background(), q)
	if err != nil {
		t.Fatalf("CreateView: %v", err)
	}
	shadow := relation.NewWithCap("shadow", relation.TupleWireBytes, db.Card(1))
	shadow.Append(db.Relation(1).Tuples...)
	applied := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			ins := shadow.Tuples[i]
			ins.Check = ins.Check*31 + 7
			del := shadow.Tuples[len(shadow.Tuples)-1]
			if _, err := v.Apply(context.Background(), ivm.Delta{Rel: 1, Insert: []relation.Tuple{ins}, Delete: []relation.Tuple{del}}); err != nil {
				applied <- err
				return
			}
			shadow.Tuples = shadow.Tuples[:len(shadow.Tuples)-1]
			shadow.Append(ins)
		}
		applied <- nil
	}()
	for _, kind := range strategy.Kinds {
		if _, err := eng.Exec(context.Background(), sessionQuery(t, db, jointree.WideBushy, kind), WithVerify()); err != nil {
			t.Fatalf("%v query beside the view: %v", kind, err)
		}
	}
	if err := <-applied; err != nil {
		t.Fatalf("Apply beside the queries: %v", err)
	}
	got, err := v.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := jointree.Reference(q.Tree, func(leaf int) *relation.Relation {
		if leaf == 1 {
			return shadow
		}
		return db.Relation(leaf)
	})
	if diff := relation.DiffMultiset(got, want); diff != "" {
		t.Fatalf("view diverged: %s", diff)
	}
}
