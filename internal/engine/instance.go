package engine

import (
	"multijoin/internal/costmodel"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/sim"
	"multijoin/internal/xra"
)

// event is the one thing the engine schedules on the simulator: a value, not
// a closure, so scheduling it allocates nothing. in is the process it is
// for; m is the message an evDeliver carries, and for an evWorkDone its
// Batch is the result batch to emit (nil when the work produced none).
type event struct {
	in   *instance
	m    operator.Msg
	kind uint8
}

// The four things a simulated run ever waits for.
const (
	evActivate uint8 = iota // the scheduler finished initializing the process
	evStarted               // its stream handshakes are paid
	evDeliver               // a message reaches it (after the network latency)
	evWorkDone              // its processor finished the work charged for one message
)

// fire is the simulator's single callback: it dispatches an event on its
// kind.
func fire(ev event) {
	in := ev.in
	switch ev.kind {
	case evActivate:
		in.tryActivate()
	case evStarted:
		in.started = true
		in.start()
		if !in.processing {
			in.next()
		}
	case evDeliver:
		in.queue = append(in.queue, ev.m)
		if in.started && !in.processing {
			in.next()
		}
	case evWorkDone:
		if b := ev.m.Batch; b != nil && in.op.Out.Local {
			in.out.Lend(b) // a scan's chunk, as it is
		} else if b != nil && b.Len() > 0 {
			in.out.Emit(b, operator.Insert)
		}
		in.next()
	}
}

// instance is one operation process: an operator replica bound to a single
// simulated processor. Its FIFO queue of messages serializes all state
// changes, so the join state machine never sees out-of-order input; a scan
// queues the chunks of its own fragment.
type instance struct {
	e     *engineState
	op    *opState
	idx   int
	proc  *sim.Proc
	label string

	startupAt     sim.Time // scheduler finished initializing this process
	activationSet bool     // activation event scheduled or executed
	started       bool     // handshakes paid; processing may proceed

	queue      []operator.Msg // queue[head:] is pending; consumed slots are cleared
	head       int
	processing bool
	finished   bool

	join operator.Join
	// tables counts the tuples the process added to its hash tables. The
	// paper holds a process's tables until it finishes, so the count leaves
	// the processor's accounting then, whatever the join gave back before.
	tables int
	res    *relation.Batch  // a join's result buffer, from a shared pool
	out    *operator.Outbox // nil for collect

	// scanChunks are the scan's placed fragment lent as batch-sized views
	// (relation.Batch.Lend), queued as messages: chunk-at-a-time cost events
	// without copying the fragment. The views are the placement's, shared
	// with every run that reads it, and never written. On a local edge a
	// chunk travels on as it is (Outbox.Lend); a redistribution scatters it
	// into pooled batches.
	scanChunks []relation.Batch
}

// tryActivate activates the process once the scheduler has initialized it
// and its After dependencies completed. Activation pays the stream
// handshakes (both incoming and outgoing endpoints) on the instance's
// processor, then opens the gates for processing.
func (in *instance) tryActivate() {
	if in.started || in.activationSet {
		return
	}
	now := in.e.sim.Now()
	if now < in.startupAt || !in.op.depsDone(in.e) {
		return // retried by the startup event or a dependency completion
	}
	in.activationSet = true
	streams := in.op.InStreams()
	if in.op.Out != nil {
		streams += in.op.Out.Dests()
	}
	hs := in.e.params.Handshake * sim.Duration(streams)
	in.e.handshake += hs
	_, end := in.proc.Acquire(now, hs, in.label)
	in.e.sim.At(end, event{in: in, kind: evStarted})
}

// start creates the join state, draws a join's result buffer and creates
// the outbox, and enqueues a scan's work. Buffers come from relation's
// shared pools, which outlive the run: a join's result buffer holds twice a
// transport batch (a probe yields about one match per row on the chain
// queries), and the outbox's pending buffers start at the size their
// streams are estimated to carry and grow to the transport size. Whoever
// consumes a batch returns it by its capacity (relation.PutShared).
func (in *instance) start() {
	bt := in.e.params.BatchTuples
	in.join.Start(false, nil)
	if k := in.op.Op.Kind; k == xra.OpSimpleJoin || k == xra.OpPipeJoin {
		in.res = relation.SharedPool(2 * bt).Get()
	}
	if in.op.Out != nil {
		start := in.op.BufferSize(len(in.op.Op.Procs), in.op.Out.Dests(), bt)
		in.out = operator.NewOutbox(in.op.Node, in.idx, relation.SharedPool(start), bt, in)
	}
	if in.op.Op.Kind == xra.OpScan {
		in.scanChunks = in.op.views[in.idx]
		in.queue = make([]operator.Msg, len(in.scanChunks))
		for k := range in.scanChunks {
			in.queue[k].Batch = &in.scanChunks[k]
		}
	}
}

// Deliver is the outbox's transport: the message reaches consumer process d
// after the network latency when it crosses processors.
func (in *instance) Deliver(d int, m operator.Msg) bool {
	e := in.op.Out
	dest := in.e.ops[e.To.Index].instances[e.Target(in.idx, d)]
	var latency sim.Duration
	if m.Remote {
		latency = in.e.params.NetLatency
	}
	in.e.sim.After(latency, event{in: dest, m: m, kind: evDeliver})
	return true
}

// next processes the head of the queue, charging the simulated processor
// and applying the algorithm state change, then re-arms itself. When the
// queue drains and all inputs have ended, the process finishes. Bookkeeping
// (punctuation, probe input held during a build phase) costs nothing and is
// drained iteratively.
func (in *instance) next() {
	if in.finished {
		return
	}
	for {
		if in.head == len(in.queue) {
			in.queue, in.head = in.queue[:0], 0
			in.processing = false
			in.maybeFinish()
			return
		}
		in.processing = true
		m := in.queue[in.head]
		in.queue[in.head] = operator.Msg{}
		in.head++

		if m.Batch == nil {
			// The end of a build phase releases the held probe input ahead
			// of anything queued later.
			if held := in.join.EOS(m.Port); len(held) > 0 {
				in.queue, in.head = append(held, in.queue[in.head:]...), 0
			}
			continue
		}
		if in.join.Hold(m) {
			continue
		}

		units, results := in.apply(m)
		cost := in.e.params.WorkCost(units)
		now := in.e.sim.Now()
		_, end := in.proc.Acquire(now, cost, in.label)
		in.e.sim.At(end, event{in: in, m: operator.Msg{Batch: results}, kind: evWorkDone})
		return
	}
}

// apply runs the operator logic on one message, returning the work in cost
// units (Section 4.3: hash=1, net receive=1, result create+send=2) and any
// result batch to emit. Join results live in the instance's result buffer
// until the next apply, and the emit event consumes them before; exhausted
// input batches return to the shared pool of their capacity, which drops the
// scans' lent views.
func (in *instance) apply(m operator.Msg) (units float64, results *relation.Batch) {
	n := float64(m.Batch.Len())
	switch in.op.Op.Kind {
	case xra.OpScan:
		units = n * in.e.params.ScanUnits
		if !in.op.Out.Local {
			units += n * costmodel.UnitsResult / 2 // send over the network
		}
		results = m.Batch
	case xra.OpSimpleJoin, xra.OpPipeJoin:
		// One table action per tuple, two when the pipelining join both
		// probes and inserts; receiving from the network and creating each
		// result tuple add theirs.
		before := in.join.Resident()
		units = n * costmodel.UnitsHash
		if in.join.Symmetric(m.Port) {
			units += n * costmodel.UnitsProbe
		}
		if m.Remote {
			units += n * costmodel.UnitsNetReceive
		}
		var err error
		if results, err = in.join.ApplyInto(in.res, m); err != nil && in.e.err == nil {
			in.e.err = err
		}
		relation.PutShared(m.Batch)
		added := in.join.Resident() - before
		in.tables += added
		in.e.addTableTuples(in.proc.ID, added)
		units += float64(results.Len()) * costmodel.UnitsResult
	case xra.OpCollect:
		// Gathering at the scheduler host is free and identical for every
		// strategy; the paper's response time excludes it. The pooled batch
		// goes to the sink in virtual-time order: ownership transfers with
		// the Push (the consumer's release returns it to its pool); a
		// blocked Push pauses the simulation, and a failed one
		// (cancellation) is recorded so the event loop aborts at its next
		// ctx check without further pushes.
		if in.e.err == nil {
			batch := m.Batch
			cnt := batch.Len() // before Push: ownership transfers with it
			if err := in.e.sink.Push(in.e.ctx, batch, func() { relation.PutShared(batch) }); err != nil {
				in.e.err = err
			} else {
				in.e.stats.ResultTuples += cnt
			}
		}
	}
	return units, results
}

// maybeFinish completes the process once every input ended and all queued
// work was applied: the hash tables are released — the modeled bytes and the
// real backing arrays, which the recycle pool hands to the joins still
// running — and so is the result buffer, remaining buffers are flushed,
// end-of-stream marks are sent to every destination, and the operator
// completion is reported when the last sibling instance finishes.
func (in *instance) maybeFinish() {
	if in.finished || !in.started || !in.join.Done() {
		return
	}
	in.finished = true
	in.e.addTableTuples(in.proc.ID, -in.tables)
	in.join.Release()
	relation.PutShared(in.res)
	if in.out != nil {
		in.out.Flush()
		in.out.Punctuate()
	}
	in.op.doneCount++
	if in.op.doneCount == len(in.op.instances) {
		in.e.opFinished(in.op)
	}
}
