package operator

import (
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

// Outbox is the output side of one operation process: it routes result
// tuples over the process's consumer edge into one pooled buffer per
// destination and sign lane, delivers a buffer the moment it is full — so a
// pooled buffer never regrows past its fixed capacity — and obeys the
// ordering rule of the package documentation. Every method reports false
// once a delivery failed (the run was torn down).
type Outbox struct {
	edge  *Edge
	procs []int // processor of each destination's consumer process
	from  int   // the producer's processor
	bk    relation.Bucketer
	pool  *relation.BatchPool
	size  int // tuples per transport batch
	to    Deliverer
	// pend holds the pending buffer of each destination, per lane: [0]
	// inserts, [1] deletes (allocated by the first delete; queries never
	// do). A nil buffer is replaced from the pool on first use.
	pend [2][]*relation.Batch

	// Transport counters of this process (Counters semantics: the edge into
	// the collect operator is not counted).
	MovedRemote, MovedLocal, Batches int64
}

// NewOutbox returns the outbox of process idx of operator n, filling
// batches of size tuples drawn from pool.
func NewOutbox(n *Node, idx int, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	e := n.Out
	first := e.Target(idx, 0)
	return newOutbox(e, n.Op.Procs[idx], e.To.Op.Procs[first:first+e.Dests()], pool, size, to)
}

// NewSourceOutbox returns an outbox that feeds every process of n's
// consumer from outside the plan's processes, standing in for all of n's
// processes at once: a view injects base-relation deltas through it. Its
// transport counters are meaningless.
func NewSourceOutbox(n *Node, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	return newOutbox(n.Out, n.Op.Procs[0], n.Out.To.Op.Procs, pool, size, to)
}

func newOutbox(e *Edge, from int, procs []int, pool *relation.BatchPool, size int, to Deliverer) *Outbox {
	o := &Outbox{edge: e, procs: procs, from: from, bk: relation.NewBucketer(len(procs)), pool: pool, size: size, to: to}
	o.pend[0] = make([]*relation.Batch, len(procs))
	return o
}

// Emit routes res with one sign. The single-destination path is three bulk
// column copies per chunk; redistribution hoists the routing key column and
// scatters row-at-a-time over flat columns.
func (o *Outbox) Emit(res *relation.Batch, sign int8) bool {
	lane := 0
	if sign < 0 {
		lane = 1
		if o.pend[1] == nil {
			o.pend[1] = make([]*relation.Batch, len(o.procs))
		}
	}
	pend, n := o.pend[lane], res.Len()
	if len(pend) == 1 {
		for lo := 0; lo < n; {
			buf := o.buffer(pend, 0)
			c := min(o.size-buf.Len(), n-lo)
			buf.AppendRange(res, lo, lo+c)
			lo += c
			if buf.Len() == o.size && !o.full(lane, 0) {
				return false
			}
		}
		return true
	}
	keys := res.Col(o.edge.Route)
	for i := 0; i < n; i++ {
		d := o.bk.Bucket(keys[i])
		buf := o.buffer(pend, d)
		buf.Append(res.U1[i], res.U2[i], res.Check[i])
		if buf.Len() == o.size && !o.full(lane, d) {
			return false
		}
	}
	return true
}

func (o *Outbox) buffer(pend []*relation.Batch, d int) *relation.Batch {
	if pend[d] == nil {
		pend[d] = o.pool.Get()
	}
	return pend[d]
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

// deliver sends the pending buffer of lane for destination d, if any.
func (o *Outbox) deliver(lane, d int) bool {
	buf := o.pend[lane][d]
	if buf == nil {
		return true
	}
	o.pend[lane][d] = nil
	if buf.Len() == 0 {
		o.pool.Put(buf)
		return true
	}
	m := Msg{Batch: buf, Port: o.edge.Port, Sign: Insert, Remote: o.procs[d] != o.from}
	if lane == 1 {
		m.Sign = Delete
	}
	if o.edge.To.Op.Kind != xra.OpCollect {
		if m.Remote {
			o.MovedRemote += int64(buf.Len())
		} else {
			o.MovedLocal += int64(buf.Len())
		}
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
// process has ended its unit of work on each outgoing stream. Callers
// Flush first.
func (o *Outbox) Punctuate() bool {
	for d := range o.procs {
		if !o.to.Deliver(d, Msg{Port: o.edge.Port, Remote: o.procs[d] != o.from}) {
			return false
		}
	}
	return true
}
