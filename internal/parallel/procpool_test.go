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

// TestPlacementCache: pinned relations are fragmented once per (relation,
// attribute, degree), unpinned ones every time and never retained; the cache
// is byte-bounded by eviction and emptied by Close. The views a placement
// lends are cut once per size and cached with it, and go with it.
func TestPlacementCache(t *testing.T) {
	rel := func(name string, card int) *relation.Relation {
		r := relation.NewWithCap(name, 208, card)
		for i := 0; i < card; i++ {
			r.Append(relation.Tuple{Unique1: int64(i), Unique2: int64(card - i), Check: uint64(i)})
		}
		return r
	}
	same := func(a, b []relation.Batch) bool { return &a[0] == &b[0] }
	sameViews := func(a, b [][]relation.Batch) bool { return &a[0][0] == &b[0][0] }
	resident, foreign := rel("resident", 1000), rel("foreign", 1000)
	p := NewProcPool(2)
	p.Pin([]*relation.Relation{resident})

	f1 := p.fragments(resident, relation.Unique1, 4)
	if !same(f1, p.fragments(resident, relation.Unique1, 4)) {
		t.Error("a pinned relation was fragmented twice for one key")
	}
	if same(f1, p.fragments(resident, relation.Unique2, 4)) || same(f1, p.fragments(resident, relation.Unique1, 8)) {
		t.Error("attribute and degree must be part of the key")
	}
	want := relation.FragmentBatches(resident, relation.Unique1, 4)
	for i := range want {
		if want[i].Len() != f1[i].Len() {
			t.Fatalf("fragment %d holds %d tuples, want %d", i, f1[i].Len(), want[i].Len())
		}
	}
	if got, want := p.PlacedBytes(), int64(3*1000*relation.TupleWireBytes); got != want {
		t.Errorf("PlacedBytes = %d, want %d (three placements)", got, want)
	}
	v1 := p.lend(resident, relation.Unique1, f1, 64)
	if !sameViews(v1, p.lend(resident, relation.Unique1, f1, 64)) {
		t.Error("a cached placement's views were cut twice for one size")
	}
	if sameViews(v1, p.lend(resident, relation.Unique1, f1, 32)) {
		t.Error("the view size must be part of the key")
	}
	for i := range f1 {
		n := 0
		for v := range v1[i] {
			if &v1[i][v].U1[0] != &f1[i].U1[n] {
				t.Fatalf("view %d of fragment %d does not start at row %d of the cached fragment", v, i, n)
			}
			n += v1[i][v].Len()
		}
		if n != f1[i].Len() {
			t.Fatalf("the views of fragment %d hold %d tuples, want %d", i, n, f1[i].Len())
		}
	}
	if own := relation.FragmentBatches(resident, relation.Unique1, 4); sameViews(v1, p.lend(resident, relation.Unique1, own, 64)) {
		t.Error("a fragmentation the cache does not hold was served the cached views")
	}

	placed := p.PlacedBytes()
	g1 := p.fragments(foreign, relation.Unique1, 4)
	if same(g1, p.fragments(foreign, relation.Unique1, 4)) || p.PlacedBytes() != placed {
		t.Error("an unpinned relation hit or grew the cache")
	}
	if sameViews(p.lend(foreign, relation.Unique1, g1, 64), p.lend(foreign, relation.Unique1, g1, 64)) {
		t.Error("the views of an unpinned relation were cached")
	}

	// A relation too big for what is left evicts what was cached; one too
	// big for the whole bound is never cached.
	big := rel("big", maxPlacedBytes/relation.TupleWireBytes-1000)
	huge := rel("huge", maxPlacedBytes/relation.TupleWireBytes+1)
	p.Pin([]*relation.Relation{big, huge})
	p.fragments(big, relation.Unique1, 2)
	if got, want := p.PlacedBytes(), int64(big.Card()*relation.TupleWireBytes); got != want {
		t.Errorf("PlacedBytes after overflow = %d, want %d (only the newcomer)", got, want)
	}
	f2 := p.fragments(resident, relation.Unique1, 4)
	if same(f1, f2) {
		t.Error("an evicted placement was served")
	}
	if v2 := p.lend(resident, relation.Unique1, f2, 64); sameViews(v1, v2) || !sameViews(v2, p.lend(resident, relation.Unique1, f2, 64)) {
		t.Error("views outlived the eviction of their placement, or the new placement caches none")
	}
	if p.PlacedBytes() > maxPlacedBytes {
		t.Errorf("PlacedBytes = %d exceeds the bound %d", p.PlacedBytes(), maxPlacedBytes)
	}
	placed = p.PlacedBytes()
	if p.fragments(huge, relation.Unique1, 2); p.PlacedBytes() != placed {
		t.Error("a relation larger than the bound was cached")
	}

	v2 := p.lend(resident, relation.Unique1, f2, 64)
	p.Close()
	if p.PlacedBytes() != 0 || len(p.placed) != 0 || len(p.pinned) != 0 {
		t.Error("Close left placement behind")
	}
	if sameViews(v2, p.lend(resident, relation.Unique1, f2, 64)) {
		t.Error("views outlived Close")
	}
	if p.fragments(resident, relation.Unique1, 4); p.PlacedBytes() != 0 {
		t.Error("a closed pool cached a placement")
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
	p.Pin(db.Relations)
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
				res, err := RunStream(context.Background(), plan, db.Relation, Config{Pool: p}, s)
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
	if n := len(p.shells[shellKey{plan, Config{Pool: p}.withDefaults(plan)}]); n < 1 || n > runners {
		t.Errorf("%d idle shells of the plan after %d runs, %d at a time", n, runners*runs, runners)
	}

	for i := range maxIdleShells + 4 {
		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		if _, err := RunStream(context.Background(), planOf(strategy.Kinds[i%4]), db.Relation, Config{Pool: p}, got); err != nil {
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
