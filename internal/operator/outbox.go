package operator

import (
	"slices"

	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// Deliverer is the transport under an Outbox: an inbox channel per
// destination (Chans) or the simulator's event heap.
type Deliverer interface {
	// Deliver takes ownership of m and hands it to destination d of the
	// edge. It reports false when the run was torn down instead.
	Deliver(d int, m Msg) bool
}

// Outbox is the output side of one operation process, or of the processes
// of one operator that a driver runs as one (NewHostOutbox): it routes result
// tuples over the consumer edge into one pooled buffer per destination and
// sign lane, delivers a buffer the moment it holds a transport batch, and
// obeys the ordering rule of the package documentation. A destination is a
// consumer process, or for a host outbox a consumer host — the consumer
// processes a driver runs as one: a tuple is routed to its consumer process
// by hash (Bucketer.Bucket) as ever, and that process names the destination.
// A buffer starts at its pool's capacity; one that fills below the transport
// size is swapped for a pooled batch of twice the capacity (at most the
// transport size). While a buffer is pending its three columns stay
// resliced to their capacity (hold) and the outbox keeps its fill beside it
// (pending), so a routed tuple is three indexed stores and one store into
// the outbox's own slice, never a write to the batch's headers. The columns
// are resliced to the fill once, when the buffer leaves: delivered (deliver,
// so Flush too), or moved to a larger capacity (filled), whose batch is held
// in its place. A host outbox is told which of its processes emits. Every
// method reports false once a delivery failed (the run was torn down).
type Outbox struct {
	node *Node // the producing operator
	// hosted lists the producer processes the outbox serves, as positions
	// in the operator's Op.Procs.
	hosted []int
	one    [1]int // backs hosted for a single process
	// dest maps each consumer process to the destination that carries its
	// tuples, its host; nil when destination d is consumer process d.
	dest []int32
	// bulk marks an outbox with one destination whose tuples' locality
	// needs no routing — a local edge, a consumer of one process, or the
	// uncounted edge into the collect — and which therefore copies the
	// column chunks of one process's results instead of routing rows.
	bulk bool
	bk   relation.Bucketer   // over the consumer's processes
	pool *relation.BatchPool // where a pending buffer starts
	size int                 // tuples per transport batch
	// pools hands out the pool of each capacity a buffer grows through
	// (relation.SharedPool), so only an outbox whose pool is shared starts
	// below the transport size.
	pools func(size int) *relation.BatchPool
	to    Deliverer
	// pend holds the pending buffer of each destination, per lane: [0]
	// inserts, [1] deletes (allocated by the first delete; queries never
	// do). A nil buffer is replaced from the pool on first use.
	pend [2][]pending

	// Transport counters (Counters semantics: the edge into the collect
	// operator is not counted). Tuples are counted where they are emitted,
	// against the processors of the process that produced each and of its
	// consumer process — they stay plan properties however many processes an
	// outbox serves or a destination carries — and batches where they are
	// delivered.
	MovedRemote, MovedLocal, Batches int64
}

// NewOutbox returns the outbox of process idx of operator n, delivering
// batches of size tuples from buffers that start at pool's capacity: one
// destination per consumer process, one on a local edge.
func NewOutbox(n *Node, idx int, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	o := newOutbox(n, nil, n.Out.Dests(), pool, size, to)
	o.one[0] = idx
	return o
}

// NewHostOutbox returns the one outbox of the processes hosted of operator
// n (ascending positions in its Op.Procs; not copied), which a driver runs
// as one process. On a redistribution edge it has one destination per
// consumer host: dest maps each consumer process to its host, numbered from
// 0. A local edge has one destination, since the consumer processes of the
// hosted ones share their processors.
func NewHostOutbox(n *Node, hosted []int, dest []int32, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	dests := 1
	if !n.Out.Local {
		dests = int(slices.Max(dest)) + 1
	}
	o := newOutbox(n, dest, dests, pool, size, to)
	o.hosted = hosted
	return o
}

// NewSourceOutbox returns an outbox that feeds every process of n's
// consumer from outside the plan's processes, standing in for all of n's
// processes at once: a view injects base-relation deltas through it. It
// routes every tuple by hash, to the destination dest names (as for
// NewHostOutbox) even on a local edge. Its transport counters are
// meaningless.
func NewSourceOutbox(n *Node, dest []int32, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	return newOutbox(n, dest, int(slices.Max(dest))+1, pool, size, to)
}

// pending is a buffer being filled: a pooled batch held at its capacity and
// the n tuples written to it.
type pending struct {
	b *relation.Batch
	n int
}

func newOutbox(n *Node, dest []int32, dests int, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	o := &Outbox{node: n, dest: dest, bk: relation.NewBucketer(len(n.Out.To.Op.Procs)), pool: pool, size: size, pools: relation.SharedPool, to: to}
	o.hosted = o.one[:]
	o.bulk = dests == 1 && (n.Out.Local || len(n.Out.To.Op.Procs) == 1 || !o.counted())
	o.pend[0] = make([]pending, dests)
	return o
}

// hold reslices the three columns of b to n tuples: to their capacity while
// b is pending, to its fill when it leaves.
func hold(b *relation.Batch, n int) *relation.Batch {
	b.U1, b.U2, b.Check = b.U1[:n], b.U2[:n], b.Check[:n]
	return b
}

// header returns the message for destination d without its batch: the
// punctuation mark. Only the outbox of one process whose destinations are
// processes (NewOutbox) knows whether a message crosses processors
// (Msg.Remote).
func (o *Outbox) header(d int) Msg {
	e := o.node.Out
	return Msg{Port: e.Port, Remote: o.dest == nil && !e.Local && e.To.Op.Procs[d] != o.node.Op.Procs[o.hosted[0]]}
}

// Emit routes the result of the outbox's only process; see EmitFrom.
func (o *Outbox) Emit(res *relation.Batch, sign int8) bool { return o.EmitFrom(0, res, sign) }

// EmitFrom routes res, the result of process hosted[k], with one sign. Both
// paths write at the fill of a pending buffer (see Outbox): the bulk path
// copies three column chunks at a time; routing hoists the key column and
// stores each row's three values at its destination's position. On a local
// edge a scan lends its fragment instead (Lend).
func (o *Outbox) EmitFrom(k int, res *relation.Batch, sign int8) bool {
	return o.emit(o.node.Op.Procs[o.hosted[k]], nil, res, sign)
}

// EmitTagged routes res, whose row i a process on processor tags[i]
// produced (operator.Join.Tags), with one sign; nil tags is Emit.
func (o *Outbox) EmitTagged(res *relation.Batch, tags []int32, sign int8) bool {
	return o.emit(o.node.Op.Procs[o.hosted[0]], tags, res, sign)
}

// emit routes res with one sign, counting each row against the processor of
// the process that produced it: from, or tags[i] when tags is set.
func (o *Outbox) emit(from int, tags []int32, res *relation.Batch, sign int8) bool {
	lane := 0
	if sign < 0 {
		lane = 1
		if o.pend[1] == nil {
			o.pend[1] = make([]pending, len(o.pend[0]))
		}
	}
	pend, n, cons := o.pend[lane], res.Len(), o.node.Out.To.Op.Procs
	if o.bulk && tags == nil {
		local := n // a local edge keeps every tuple on its processor
		if !o.node.Out.Local && cons[0] != from {
			local = 0
		}
		o.moved(local, n)
		p := &pend[0]
		for lo := 0; lo < n; {
			if p.b == nil {
				o.open(p)
			}
			b, j := p.b, p.n
			c := copy(b.U1[j:], res.U1[lo:n])
			copy(b.U2[j:], res.U2[lo:lo+c])
			copy(b.Check[j:], res.Check[lo:lo+c])
			p.n += c
			lo += c
			if p.n == len(b.U1) && !o.filled(lane, 0) {
				return false
			}
		}
		return true
	}
	keys, local := res.Col(o.node.Out.Route)[:n], 0
	u1, u2, check, bk, dest := res.U1[:n], res.U2[:n], res.Check[:n], o.bk, o.dest
	for i, key := range keys {
		d := bk.Bucket(key)
		if tags != nil {
			from = int(tags[i])
		}
		if cons[d] == from {
			local++
		}
		if dest != nil {
			d = int(dest[d])
		}
		p := &pend[d]
		if p.b == nil {
			o.open(p)
		}
		b, j := p.b, p.n
		b.U1[j], b.U2[j], b.Check[j] = u1[i], u2[i], check[i]
		p.n = j + 1
		if j+1 == len(b.U1) && !o.filled(lane, d) {
			return false
		}
	}
	o.moved(local, n)
	return true
}

// Lend delivers view — a lent view of a hosted process's placed fragment
// (relation.Batch.Lend), at most a transport batch long — as it is to the
// one destination of the outbox's local edge: the one message and the
// counters EmitFrom would have cut and taken for it, without copying a
// tuple or drawing a pooled batch. The tuples stay on the processor
// (xra.LocalEdge), and nothing is ever pending before them: a scan's outbox
// carries its views only. A local edge never ends at the collect, so the
// batch is counted.
func (o *Outbox) Lend(view *relation.Batch) bool {
	o.moved(view.Len(), view.Len())
	o.Batches++
	m := o.header(0)
	m.Batch, m.Sign = view, Insert
	return o.to.Deliver(0, m)
}

// moved counts n emitted tuples, local of them for a consumer process on
// the emitting process's own processor.
func (o *Outbox) moved(local, n int) {
	if o.counted() {
		o.MovedLocal += int64(local)
		o.MovedRemote += int64(n - local)
	}
}

func (o *Outbox) counted() bool { return o.node.Out.To.Op.Kind != xra.OpCollect }

// open makes an empty batch from the pool, held at its capacity, the
// pending buffer p.
func (o *Outbox) open(p *pending) {
	b := o.pool.Get()
	*p = pending{b: hold(b, b.Cap())}
}

// filled takes the buffer of lane for destination d that reached its
// capacity: at the transport size it is delivered (full); below, its tuples
// move to a batch of twice the capacity, at most the transport size, held
// at that capacity, and it goes back to the pool of its own capacity.
func (o *Outbox) filled(lane, d int) bool {
	p := &o.pend[lane][d]
	if p.n == o.size {
		return o.full(lane, d)
	}
	grown := o.pools(min(2*p.b.Cap(), o.size)).Get()
	grown.AppendRange(p.b, 0, p.n)
	o.pools(p.b.Cap()).Put(p.b)
	p.b = hold(grown, grown.Cap())
	return true
}

// full delivers the full buffer of lane for destination d — after any
// pending buffer of an earlier lane for d: the ordering rule.
func (o *Outbox) full(lane, d int) bool {
	for l := 0; l <= lane; l++ {
		if !o.deliver(l, d) {
			return false
		}
	}
	return true
}

// deliver sends the pending buffer of lane for destination d, if any, at
// the length of its fill.
func (o *Outbox) deliver(lane, d int) bool {
	p := &o.pend[lane][d]
	buf, n := p.b, p.n
	if buf == nil {
		return true
	}
	*p = pending{}
	if n == 0 {
		o.pool.Put(buf)
		return true
	}
	m := o.header(d)
	m.Batch, m.Sign = hold(buf, n), Insert
	if lane == 1 {
		m.Sign = Delete
	}
	if o.counted() {
		o.Batches++
	}
	return o.to.Deliver(d, m)
}

// Flush delivers every pending buffer, lane by lane — which keeps the
// ordering rule for each destination.
func (o *Outbox) Flush() bool {
	for lane := range o.pend {
		for d := range o.pend[lane] {
			if !o.deliver(lane, d) {
				return false
			}
		}
	}
	return true
}

// Punctuate delivers one punctuation mark to every destination: the
// outbox's processes have ended their unit of work on each outgoing stream —
// one mark per destination however many processes the outbox serves or the
// destination carries (Join.Expect). Callers Flush first.
func (o *Outbox) Punctuate() bool {
	for d := range o.pend[0] {
		if !o.to.Deliver(d, o.header(d)) {
			return false
		}
	}
	return true
}

// minBufferTuples is the floor of a pending buffer's starting capacity:
// below a couple of cache lines per column the per-batch overhead dominates
// any residency win.
const minBufferTuples = 16

// BufferSize returns the capacity the pending buffers of n's output start
// at when producers outboxes serve n's processes, consumers destinations
// its consumer's, and a transport batch holds size tuples. EstCard is
// spread over all the buffers — one per outbox on a local edge, one per
// outbox and destination on a redistribution — and a buffer expected to
// fill a transport batch starts at size; otherwise at the power-of-two
// ceiling of its expected tuples (so capacities stay few and round), floored
// at minBufferTuples.
func (n *Node) BufferSize(producers, consumers, size int) int {
	buffers := producers
	if !n.Out.Local {
		buffers *= consumers
	}
	expected := n.EstCard / buffers
	if expected >= size {
		return size
	}
	c := minBufferTuples
	for c < expected {
		c <<= 1
	}
	return min(c, size)
}
