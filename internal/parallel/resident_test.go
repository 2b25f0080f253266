package parallel

import (
	"context"
	"testing"
	"time"

	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// TestResidentHostsTakePoolSlots: a resident network computes on the slots
// of the ProcPool it is given. Every join host's slot is the pool's slot of
// its processors, and while every slot is held no join step runs, so no
// result reaches the collect; released, the round completes exactly.
func TestResidentHostsTakePoolSlots(t *testing.T) {
	const rels, card = 4, 300
	db, err := wisconsin.Chain(wisconsin.Config{Relations: rels, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.LeftLinear, rels)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := strategy.Plan(strategy.RD, tree, strategy.Config{Procs: 2 * rels, Card: card})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewProcPool(2)
	defer pool.Close()
	net, err := RunResident(context.Background(), plan, db.Relation, Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	hosts := 0
	for _, os := range net.r.ops {
		if k := os.Op.Kind; k != xra.OpSimpleJoin && k != xra.OpPipeJoin {
			continue
		}
		for _, h := range os.hosts {
			hosts++
			if want := &pool.slots[pool.index(os.Op.Procs[h.procs[0]])]; h.slot != want {
				t.Errorf("host of %s processes %v does not lock its slot of the given pool", os.Op.ID, h.procs)
			}
		}
	}
	if hosts == 0 {
		t.Fatal("the network has no join hosts")
	}

	for i := range pool.slots {
		pool.slots[i].Lock()
	}
	injected := make(chan bool, 1)
	go func() {
		ok := true
		for _, op := range plan.Ops {
			if op.Kind == xra.OpScan {
				ok = ok && net.Inject(op.Leaf, db.Relation(op.Leaf).Tuples, operator.Insert)
			}
		}
		injected <- ok && net.EndRound()
	}()
	in, marks := net.Collected()
	results := 0
	hold := time.After(20 * time.Millisecond)
	for held := true; held; {
		select {
		case m := <-in:
			if m.Batch != nil {
				t.Error("a result reached the collect while every slot of the pool was held")
				results += m.Batch.Len()
				net.Release(m.Batch)
				continue
			}
			marks--
		case <-hold:
			held = false
		}
	}
	for i := range pool.slots {
		pool.slots[i].Unlock()
	}
	for marks > 0 {
		m := <-in
		if m.Batch == nil {
			marks--
			continue
		}
		results += m.Batch.Len()
		net.Release(m.Batch)
	}
	if !<-injected {
		t.Fatal("injection failed")
	}
	if want := jointree.Reference(tree, db.Relation).Card(); results != want {
		t.Fatalf("the round produced %d result tuples, want %d", results, want)
	}
}
