package relation

import "sync"

// BatchPool recycles fixed-capacity columnar batches between the producers
// and consumers of executions: an outbox draws a batch with Get and the
// consumer that exhausts it returns it with Put, so steady-state execution
// allocates no per-batch garbage. Get and Put are allocation-free and safe
// for concurrent use; an empty pool falls back to NewBatch.
//
// A pool keeps its idle batches in one of two ways. A session pool
// (NewBatchPool) keeps a bounded free list, a buffered channel: what it
// retains survives garbage collection, so an engine's pools stay warm
// between queries however often the collector runs, and a full free list
// drops the batch to the collector, so Put never blocks. A shared pool
// (SharedPool) keeps them in a sync.Pool: unbounded between collections,
// given back to the collector by the next ones, so every run in the process
// can draw on it without any run's peak staying pinned.
type BatchPool struct {
	size int
	free chan *Batch // a session pool's free list; nil for a shared pool
	idle sync.Pool   // a shared pool's idle batches
	// acct, when set, observes the live-batch byte balance: +batch bytes on
	// every Get, -batch bytes on every Put of a pool-shaped batch. A memory
	// budget (spill runtime) hangs off this hook.
	acct func(deltaBytes int64)
}

// MaxPoolRetain is the conventional upper bound on a session pool's free
// list: beyond this many idle batches the pool would only hoard memory.
const MaxPoolRetain = 1 << 14

// NewBatchPool returns a session pool of batches with capacity size tuples
// each, retaining at most retain idle batches. retain should cover the
// number of batches in flight at once (roughly streams × channel depth,
// capped at MaxPoolRetain); beyond that the pool only trades memory for
// nothing.
func NewBatchPool(size, retain int) *BatchPool {
	if size < 1 {
		size = 1
	}
	if retain < 1 {
		retain = 1
	}
	return &BatchPool{size: size, free: make(chan *Batch, retain)}
}

// NewBatchPoolAccounted is NewBatchPool with a live-byte accounting hook:
// acct observes +size×TupleWireBytes on every Get and the matching negative
// delta on every Put of a pool-shaped batch, so the caller always knows how
// many bytes of pooled batches are checked out. The hook must be safe for
// concurrent use (Get and Put are called from many goroutines).
func NewBatchPoolAccounted(size, retain int, acct func(deltaBytes int64)) *BatchPool {
	p := NewBatchPool(size, retain)
	p.acct = acct
	return p
}

// sharedPools holds the shared pools by capacity (int -> *BatchPool).
var sharedPools sync.Map

// SharedPool returns the process-wide pool of batches with capacity size
// tuples, creating it on first use. Shared pools outlive the runs that draw
// from them and serve any number of them at once; a consumer that receives
// batches of several capacities returns each with PutShared.
func SharedPool(size int) *BatchPool {
	if p, ok := sharedPools.Load(size); ok {
		return p.(*BatchPool)
	}
	p, _ := sharedPools.LoadOrStore(size, &BatchPool{size: size})
	return p.(*BatchPool)
}

// PutShared returns b to the shared pool of its capacity. A batch of a
// capacity no shared pool has is dropped, and so is a lent view.
func PutShared(b *Batch) {
	if b == nil {
		return
	}
	if p, ok := sharedPools.Load(b.Cap()); ok {
		p.(*BatchPool).Put(b)
	}
}

// batchBytes is the accounted size of one pooled batch: full capacity, since
// the capacity is reserved whether or not the batch is full.
func (p *BatchPool) batchBytes() int64 { return int64(p.size) * TupleWireBytes }

// BatchSize returns the capacity, in tuples, of the pool's batches.
func (p *BatchPool) BatchSize() int { return p.size }

// Get returns an empty batch with the pool's capacity.
func (p *BatchPool) Get() *Batch {
	if p.acct != nil {
		p.acct(p.batchBytes())
	}
	var b *Batch
	if p.free == nil {
		b, _ = p.idle.Get().(*Batch)
	} else {
		select {
		case b = <-p.free:
		default:
		}
	}
	if b == nil {
		return NewBatch(p.size)
	}
	debugGet(b)
	b.Reset()
	return b
}

// Put returns a batch to the pool. Batches that did not come from a pool of
// the same size (or grew past their capacity) are dropped, and so is a lent
// view (Batch.Lend) before anything touches it, so handing a foreign batch
// to Put is harmless — but note that the pool will reuse accepted batches:
// never Put a pool-shaped batch that something still aliases.
func (p *BatchPool) Put(b *Batch) {
	if b == nil || b.lent || b.Cap() != p.size {
		return
	}
	debugPut(b)
	if p.acct != nil {
		p.acct(-p.batchBytes())
	}
	if p.free == nil {
		p.idle.Put(b)
		return
	}
	select {
	case p.free <- b:
	default:
	}
}
