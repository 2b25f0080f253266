package relation

// BatchPool recycles fixed-capacity columnar batches across the producers
// and consumers of one execution: scans, redistribution out-buffers and
// channel items draw batches with Get and the consumer that exhausts a
// batch returns it with Put, so steady-state execution allocates no
// per-batch garbage. The free list is a buffered channel — Get and Put are
// themselves allocation-free (unlike sync.Pool, whose interface boxing
// costs one header allocation per cycle) and safe for concurrent use. An
// empty free list falls back to NewBatch; a full one drops the batch to the
// garbage collector, so Put never blocks.
type BatchPool struct {
	size int
	free chan *Batch
	// acct, when set, observes the live-batch byte balance: +batch bytes on
	// every Get, -batch bytes on every Put of a pool-shaped batch. A memory
	// budget (spill runtime) hangs off this hook.
	acct func(deltaBytes int64)
	dbg  poolDebug
}

// MaxPoolRetain is the conventional upper bound both runtimes place on a
// pool's free list: beyond this many idle batches the pool would only
// hoard memory.
const MaxPoolRetain = 1 << 14

// NewBatchPool returns a pool of batches with capacity size tuples each,
// retaining at most retain idle batches. retain should cover the number of
// batches in flight at once (roughly streams × channel depth, capped at
// MaxPoolRetain); beyond that the pool only trades memory for nothing.
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
	select {
	case b := <-p.free:
		p.dbg.get(b, true)
		b.Reset()
		return b
	default:
		b := NewBatch(p.size)
		p.dbg.get(b, false)
		return b
	}
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
	p.dbg.put(b)
	if p.acct != nil {
		p.acct(-p.batchBytes())
	}
	select {
	case p.free <- b:
	default:
		p.dbg.drop(b)
	}
}
