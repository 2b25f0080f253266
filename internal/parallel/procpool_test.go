package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// TestSlotExclusive hammers one modeled processor from many goroutines
// through every plan processor id that maps to it — positive, wrapped and
// the scheduler host's negative pseudo id — and asserts no two of them are
// ever inside the slot together, while a different slot stays free.
func TestSlotExclusive(t *testing.T) {
	const size, workers, rounds = 4, 16, 2000
	p := NewProcPool(size)
	defer p.Close()
	if p.Size() != size {
		t.Fatalf("Size = %d, want %d", p.Size(), size)
	}
	ids := []int{3, 3 + size, 3 + 5*size, 3 - size} // all slot 3
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := &p.slots[p.index(ids[g%len(ids)])]
			for i := 0; i < rounds; i++ {
				slot.Lock()
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				inside.Add(-1)
				slot.Unlock()
			}
		}(g)
	}
	// While slot 3 is contended, slot 2 is not: a held slot blocks only its
	// own processor's processes.
	other := &p.slots[p.index(2)]
	for i := 0; i < rounds; i++ {
		if !other.TryLock() {
			t.Fatal("slot 2 is held although only slot 3 is in use")
		}
		other.Unlock()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping entries into one slot", n)
	}
}

// TestResidentBatchPools: one pool per capacity for every run on the
// ProcPool, a bounded number of them, and none after Close.
func TestResidentBatchPools(t *testing.T) {
	p := NewProcPool(2)
	a, b := p.batchPool(64), p.batchPool(256)
	if a == b || a != p.batchPool(64) || b != p.batchPool(256) {
		t.Fatal("resident pools are not one per capacity")
	}
	if a.BatchSize() != 64 || b.BatchSize() != 256 {
		t.Fatalf("pool capacities %d, %d", a.BatchSize(), b.BatchSize())
	}
	for size := 1; len(p.pools) < maxResidentPools; size++ {
		p.batchPool(1000 + size)
	}
	extra := p.batchPool(5000)
	if extra == nil || extra.BatchSize() != 5000 {
		t.Fatal("a capacity past the bound must still get a working pool")
	}
	if extra == p.batchPool(5000) || len(p.pools) != maxResidentPools {
		t.Fatalf("a capacity past the bound became resident (%d pools)", len(p.pools))
	}
	p.Close()
	if len(p.pools) != 0 {
		t.Fatalf("%d pools survive Close", len(p.pools))
	}
}

// keepSink gathers a run's result and keeps its batches until the first
// push of its next run, which releases them: a finished run's batches are
// still held while the next run of the plan — on a shell some finished run
// left — is going.
type keepSink struct {
	got            *relation.Relation
	held, previous []func()
}

func (s *keepSink) Push(_ context.Context, b *relation.Batch, release func()) error {
	for _, f := range s.previous {
		f()
	}
	s.previous = nil
	for i := 0; i < b.Len(); i++ {
		s.got.Append(b.Tuple(i))
	}
	s.held = append(s.held, release)
	return nil
}

// TestShellReuse: four goroutines run one plan at once, again and again, on
// one ProcPool, each run on a shell an earlier one left whenever there is
// one, and each releasing a run's result batches only while its next run is
// pushing. Every run matches the reference and counts what the first did,
// and no more shells stay idle than ran at once. Then more distinct plans than the bound run one after
// another, and the pool never keeps more shells than the bound.
func TestShellReuse(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := jointree.Reference(tree, db.Relation)
	p := NewProcPool(4)
	defer p.Close()
	cfg := Config{Pool: p, Placement: db.Placement()}
	planOf := func(kind strategy.Kind) *xra.Plan {
		t.Helper()
		plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	const runners, runs = 4, 10
	plan := planOf(strategy.RD)
	var wg sync.WaitGroup
	for range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &keepSink{}
			defer func() {
				for _, f := range s.held {
					f()
				}
			}()
			var first operator.Counters
			for i := range runs {
				s.got, s.previous, s.held = relation.New("got", want.TupleBytes), s.held, nil
				res, err := RunStream(context.Background(), plan, db.Relation, cfg, s)
				if err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				if diff := relation.DiffMultiset(s.got, want); diff != "" {
					t.Errorf("run %d: result differs from the reference: %s", i, diff)
					return
				}
				if i == 0 {
					first = res.Stats.Counters
				} else if res.Stats.Counters != first {
					t.Errorf("run %d counted %+v, the first %+v", i, res.Stats.Counters, first)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(p.shells[shellKey{plan, cfg.withDefaults(plan)}]); n < 1 || n > runners {
		t.Errorf("%d idle shells of the plan after %d runs, %d at a time", n, runners*runs, runners)
	}

	for i := range maxIdleShells + 4 {
		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		if _, err := RunStream(context.Background(), planOf(strategy.Kinds[i%4]), db.Relation, cfg, got); err != nil {
			t.Fatal(err)
		}
		if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
			t.Fatalf("plan %d: result differs from the reference: %s", i, diff)
		}
		if p.idle < 1 || p.idle > maxIdleShells {
			t.Fatalf("%d idle shells after %d distinct plans, bound %d", p.idle, i+1, maxIdleShells)
		}
	}
}
