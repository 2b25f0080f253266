package relation

// Batch is a columnar tuple batch — the transport unit of every runtime.
// Tuples are stored as three parallel columns (structure-of-arrays): the two
// join-relevant integer attributes and the provenance checksum. The hot
// loops of the execution engines — hashing a key column, routing a batch
// over a consumer's processes, probing a hash table with a whole batch —
// run as tight loops over flat []int64 columns instead of chasing 24-byte
// row structs, which is what lets them vectorize.
//
// A Batch is one of three kinds: pool-shaped (fixed capacity, recycled
// through a BatchPool, ownership transferred along the data path), a plain
// growable buffer (scratch join results, Grace partition backlogs, placed
// fragments), or a lent view (Lend): a read-only window into a placed
// fragment that nobody owns and no pool ever takes back, so it may travel
// wherever a pooled batch does. The zero value is an empty batch ready for
// appends.
type Batch struct {
	U1    []int64
	U2    []int64
	Check []uint64
	dbg   batchDebug // the pooldebug build's mark; takes no space otherwise
	// lent marks a view cut by Lend: BatchPool.Put drops it.
	lent bool
}

// NewBatch returns an empty batch with capacity for capTuples tuples in
// each column.
func NewBatch(capTuples int) *Batch {
	if capTuples < 0 {
		capTuples = 0
	}
	return &Batch{
		U1:    make([]int64, 0, capTuples),
		U2:    make([]int64, 0, capTuples),
		Check: make([]uint64, 0, capTuples),
	}
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.U1) }

// Cap returns the tuple capacity of the batch's columns.
func (b *Batch) Cap() int { return cap(b.U1) }

// Reset truncates the batch to zero tuples, keeping the columns' capacity.
func (b *Batch) Reset() {
	b.U1 = b.U1[:0]
	b.U2 = b.U2[:0]
	b.Check = b.Check[:0]
}

// Append adds one tuple given as column values.
func (b *Batch) Append(u1, u2 int64, check uint64) {
	b.U1 = append(b.U1, u1)
	b.U2 = append(b.U2, u2)
	b.Check = append(b.Check, check)
}

// AppendTuple adds one row-form tuple.
func (b *Batch) AppendTuple(t Tuple) { b.Append(t.Unique1, t.Unique2, t.Check) }

// AppendTuples adds a slice of row-form tuples, transposing them into the
// columns.
func (b *Batch) AppendTuples(ts []Tuple) {
	for _, t := range ts {
		b.U1 = append(b.U1, t.Unique1)
		b.U2 = append(b.U2, t.Unique2)
		b.Check = append(b.Check, t.Check)
	}
}

// AppendRange bulk-copies rows [lo,hi) of src — three column copies, the
// columnar fast path scans use to fill transport batches.
func (b *Batch) AppendRange(src *Batch, lo, hi int) {
	b.U1 = append(b.U1, src.U1[lo:hi]...)
	b.U2 = append(b.U2, src.U2[lo:hi]...)
	b.Check = append(b.Check, src.Check[lo:hi]...)
}

// Tuple returns row i in row form.
func (b *Batch) Tuple(i int) Tuple {
	return Tuple{Unique1: b.U1[i], Unique2: b.U2[i], Check: b.Check[i]}
}

// View returns rows [lo,hi) as a batch sharing this batch's column storage
// — a read-only window (full-slice expressions keep appends to the view
// from clobbering the parent). Scans use views to emit chunk-at-a-time
// without copying the fragment.
func (b *Batch) View(lo, hi int) Batch {
	return Batch{
		U1:    b.U1[lo:hi:hi],
		U2:    b.U2[lo:hi:hi],
		Check: b.Check[lo:hi:hi],
	}
}

// Lend returns the batch cut into views of size tuples each, the last one
// shorter. The views share the batch's column
// storage, must never be written, and are marked lent, so a consumer that
// hands one to a BatchPool when done with it, as it would a pooled batch,
// leaves it untouched: a scan lends its placed fragment instead of copying
// it into transport batches.
func (b *Batch) Lend(size int) []Batch {
	n := b.Len()
	views := make([]Batch, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		v := b.View(lo, min(lo+size, n))
		v.lent = true
		views = append(views, v)
	}
	return views
}

// Col returns the column of the given join attribute — the key column a
// vectorized hash or probe loop iterates.
func (b *Batch) Col(a Attr) []int64 {
	if a == Unique1 {
		return b.U1
	}
	return b.U2
}

// AppendTo appends the batch's tuples to a relation in row form (the
// materialization boundary: collect gathers and cursors leave columnar
// space here).
func (b *Batch) AppendTo(r *Relation) { b.AppendRangeTo(r, 0, b.Len()) }

// AppendRangeTo appends rows [lo,hi) to a relation in row form.
func (b *Batch) AppendRangeTo(r *Relation, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.Tuples = append(r.Tuples, Tuple{Unique1: b.U1[i], Unique2: b.U2[i], Check: b.Check[i]})
	}
}

// Tuples returns the batch as a freshly allocated, exactly sized row-form
// slice — the transposition a consumer that keeps row-form tuples (a view's
// delta round, a test) does once per batch.
func (b *Batch) Tuples() []Tuple {
	out := make([]Tuple, 0, b.Len())
	for i := range b.U1 {
		out = append(out, b.Tuple(i))
	}
	return out
}

// FragmentBatches hash-partitions r on attribute a into n columnar,
// scan-ready fragments (n < 1 means 1) — how every runtime places a base
// relation on its processors. It is a counting sort into three shared
// backing arrays: one hash pass records
// each tuple's fragment and the fragment cardinalities, the columns are
// allocated once for the whole relation, and the placement pass scatters
// column values to precomputed offsets. Every fragment is a capacity-capped
// window into the shared columns, so fragmenting costs a constant number of
// allocations regardless of n. Fragment i holds exactly the tuples with
// HashKey(t.Get(a), n) == i.
func FragmentBatches(r *Relation, a Attr, n int) []Batch {
	if n < 1 {
		n = 1
	}
	total := len(r.Tuples)
	frags := make([]Batch, n)
	ids := make([]int32, total)
	counts := make([]int32, n)
	bk := NewBucketer(n)
	for i, t := range r.Tuples {
		f := int32(bk.Bucket(t.Get(a)))
		ids[i] = f
		counts[f]++
	}
	u1 := make([]int64, total)
	u2 := make([]int64, total)
	check := make([]uint64, total)
	cursor := make([]int32, n)
	off := int32(0)
	for i, c := range counts {
		cursor[i] = off
		hi := off + c
		frags[i].U1 = u1[off:hi:hi]
		frags[i].U2 = u2[off:hi:hi]
		frags[i].Check = check[off:hi:hi]
		off = hi
	}
	for i, t := range r.Tuples {
		p := cursor[ids[i]]
		cursor[ids[i]] = p + 1
		u1[p] = t.Unique1
		u2[p] = t.Unique2
		check[p] = t.Check
	}
	return frags
}
