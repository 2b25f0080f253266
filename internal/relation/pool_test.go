package relation

import (
	"sync"
	"testing"
)

func TestBatchPoolReuse(t *testing.T) {
	p := NewBatchPool(8, 4)
	if p.BatchSize() != 8 {
		t.Fatalf("BatchSize = %d", p.BatchSize())
	}
	b := p.Get()
	if b.Len() != 0 || b.Cap() != 8 {
		t.Fatalf("Get: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.AppendTuple(Tuple{Unique1: 1})
	p.Put(b)
	b2 := p.Get()
	if b2.Len() != 0 || b2.Cap() != 8 {
		t.Fatalf("recycled batch: len=%d cap=%d", b2.Len(), b2.Cap())
	}
	if b != b2 {
		t.Error("Get after Put did not reuse the batch")
	}
}

func TestBatchPoolRejectsForeign(t *testing.T) {
	p := NewBatchPool(8, 4)
	p.Put(NewBatch(16)) // wrong capacity: dropped
	b := p.Get()
	if b.Cap() != 8 {
		t.Errorf("pool handed out a foreign batch with cap %d", b.Cap())
	}
	// Overfull free list: Put must not block.
	for i := 0; i < 10; i++ {
		p.Put(NewBatch(8))
	}
}

func TestBatchPoolConcurrent(t *testing.T) {
	p := NewBatchPool(64, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := p.Get()
				for j := 0; j < 64; j++ {
					b.Append(int64(g), int64(j), 0)
				}
				for j := range b.U1 {
					if b.U1[j] != int64(g) {
						t.Errorf("batch mutated by another goroutine")
						return
					}
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedPool: a shared pool is one per capacity for the whole process,
// hands out batches of its capacity, and takes back from PutShared only
// batches of a capacity it serves — not a lent view, not a batch of a
// capacity no shared pool has.
func TestSharedPool(t *testing.T) {
	p := SharedPool(24)
	if SharedPool(24) != p || p.BatchSize() != 24 {
		t.Fatal("SharedPool(24) is not one pool of capacity 24")
	}
	b := p.Get()
	if b.Len() != 0 || b.Cap() != 24 {
		t.Fatalf("Get: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.Append(1, 2, 3)
	PutShared(b)
	if got := p.Get(); got.Len() != 0 || got.Cap() != 24 {
		t.Fatalf("Get after PutShared: len=%d cap=%d", got.Len(), got.Cap())
	}
	var frag Batch
	for i := int64(0); i < 48; i++ {
		frag.Append(i, i, uint64(i))
	}
	views := frag.Lend(24)
	PutShared(&views[0])
	PutShared(NewBatch(12345))
	PutShared(nil)
	if _, ok := sharedPools.Load(12345); ok {
		t.Error("PutShared created a pool for a foreign capacity")
	}
	for i := int64(0); i < 48; i++ {
		if frag.U1[i] != i {
			t.Fatalf("row %d of a lent fragment changed after PutShared", i)
		}
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops a share of what it is given
	}
	// A capacity past the small integers an interface holds without
	// allocating: looking the pool up must not box it.
	q := SharedPool(300)
	if n := testing.AllocsPerRun(100, func() { PutShared(q.Get()) }); n != 0 {
		t.Errorf("a shared Get and PutShared allocate %v times, want 0", n)
	}
}

// TestSharedPoolConcurrent: concurrent runs draw on the same shared pools,
// of several capacities, and return batches by capacity.
func TestSharedPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := SharedPool(16 << (i % 3)).Get()
				for j := 0; j < b.Cap(); j++ {
					b.Append(int64(g), int64(j), 0)
				}
				for j := range b.U1 {
					if b.U1[j] != int64(g) {
						t.Errorf("batch mutated by another goroutine")
						return
					}
				}
				PutShared(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestLendCutsViews: Lend cuts a fragment at the transport size — the chunk
// boundaries a copy into pooled batches makes — into views that share the
// fragment's columns and cannot append into them.
func TestLendCutsViews(t *testing.T) {
	var frag Batch
	for i := int64(0); i < 10; i++ {
		frag.Append(i, -i, uint64(i))
	}
	views := frag.Lend(4)
	if len(views) != 3 || cap(views) != 3 {
		t.Fatalf("%d views (cap %d), want 3", len(views), cap(views))
	}
	for v, want := range []int{4, 4, 2} {
		b := &views[v]
		if !b.lent || b.Len() != want || b.Cap() != want || &b.U1[0] != &frag.U1[4*v] || &b.Check[0] != &frag.Check[4*v] {
			t.Errorf("view %d: lent %v, len %d, cap %d; want a lent view of rows [%d,%d)", v, b.lent, b.Len(), b.Cap(), 4*v, 4*v+want)
		}
	}
	if whole := frag.Lend(10); len(whole) != 1 || whole[0].Len() != 10 {
		t.Errorf("a fragment no longer than the size: %d views", len(whole))
	}
	var empty Batch
	if got := empty.Lend(4); len(got) != 0 {
		t.Errorf("an empty fragment lent %d views", len(got))
	}
}

// TestLentViewNeverPooled: Put of a lent view is a no-op even where its
// capacity is the pool's — the free list does not grow, the accounting hook
// is not called, and the viewed columns are not written (under -tags
// pooldebug: not poisoned) — and the pool keeps handing out batches of its
// own.
func TestLentViewNeverPooled(t *testing.T) {
	var frag Batch
	for i := int64(0); i < 8; i++ {
		frag.Append(i, i+100, uint64(i)*7)
	}
	want := frag.Tuples()
	calls := 0
	p := NewBatchPoolAccounted(4, 8, func(int64) { calls++ })
	views := frag.Lend(4)
	for v := range views {
		p.Put(&views[v])
	}
	if len(p.free) != 0 || calls != 0 {
		t.Errorf("Put of lent views: %d batches on the free list, %d accounting calls; want 0, 0", len(p.free), calls)
	}
	for i, tp := range want {
		if frag.Tuple(i) != tp {
			t.Fatalf("row %d of the fragment is %+v after Put, want %+v", i, frag.Tuple(i), tp)
		}
	}
	if b := p.Get(); b.lent || b.Cap() != 4 || &b.U1[:1][0] == &frag.U1[0] || &b.U1[:1][0] == &frag.U1[4] {
		t.Error("the pool handed out a lent view")
	}
}
