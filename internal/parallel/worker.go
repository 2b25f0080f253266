package parallel

import (
	"sync"
	"time"

	"multijoin/internal/hashjoin"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// inst is one operation process: an operator replica bound to one plan
// processor id, running as one worker goroutine that receives, joins and
// sends. Only the join step occupies the modeled processor: the worker takes
// the processor's slot for one batch and holds it across no channel
// operation.
type inst struct {
	r   *runtimeState
	op  *opState
	idx int
	// local reports whether this process runs on this node; a non-local
	// instance of a partial run is only a routing target (its streams are
	// served by the transport) and is never launched.
	local bool

	// slot is the modeled processor the process computes on. A join step is
	// one batch, so waiting for the slot needs no cancellation case.
	slot *sync.Mutex

	// Input side: every producer sends into inbox.
	inbox chan operator.Msg
	join  operator.Join
	// grace replaces the kernel's in-memory join step when the run has a
	// memory budget (Config.MemoryBudget): the operands are partitioned — to
	// disk when over budget — and joined partition-at-a-time after both
	// ended. join then only counts end-of-stream marks.
	grace *hashjoin.Grace

	// Output side (nil for collect): the outbox and its destinations.
	out   *operator.Outbox
	chans operator.Chans
}

// run is the worker goroutine body. It first buffers any input that arrives
// while the operator's After dependencies are pending — draining the inbox
// unconditionally is what makes dependency waiting deadlock-free: producers
// are never blocked forever by a consumer that is not allowed to start yet.
// Once the dependencies complete it replays the stash and then processes
// live input until every incoming stream has ended.
func (w *inst) run() {
	defer w.r.wg.Done()
	var stash []operator.Msg // input that arrived while After dependencies were pending
	for waiting := len(w.op.After) > 0; waiting; {
		m, ok := w.next(w.op.ready)
		switch {
		case ok:
			if stash == nil {
				// Producers block once the inbox is full, so its capacity
				// is what typically arrives before the dependencies end.
				stash = make([]operator.Msg, 0, cap(w.inbox))
			}
			stash = append(stash, m)
		case w.r.ctx.Err() != nil:
			return
		default:
			waiting = false
		}
	}
	if w.grace == nil {
		w.join.Start(w.r.cfg.BatchTuples)
	}
	// Scan work is a column copy into pooled transport batches and is not
	// charged to the processor (the simulator's near-zero ScanUnits).
	if w.op.Op.Kind == xra.OpScan && !w.out.Emit(&w.op.Frags[w.idx], operator.Insert) {
		return
	}
	for _, m := range stash {
		if !w.handle(m) {
			return
		}
	}
	for !w.join.Done() {
		m, ok := w.next(nil)
		if !ok || !w.handle(m) {
			return
		}
	}
	if w.r.ctx.Err() != nil {
		// Cancelled while draining: the partial output must not be
		// reported as a completed operator.
		return
	}
	if w.grace != nil {
		// Out-of-core join: both operands have ended; join the partitions
		// one at a time, emitting result chunks downstream. This runs
		// outside the processor's slot — it may block on file I/O and on
		// downstream inbox sends, and blocked processes must not occupy a
		// processor.
		err := w.grace.Drain(func(results *relation.Batch) error {
			w.out.Emit(results, operator.Insert)
			return w.r.ctx.Err()
		})
		if err != nil {
			if w.r.ctx.Err() == nil {
				w.r.fail(err)
			}
			return
		}
	}
	// Flush remaining buffers and end every outgoing stream.
	if w.out != nil && !(w.out.Flush() && w.out.Punctuate()) {
		return
	}
	w.join.Release()
	if w.op.remaining.Add(-1) == 0 {
		w.op.wallDone = time.Since(w.r.start)
		close(w.op.done)
	}
}

// next receives the process's next inbox message. It tries the plain
// receive first and selects only when it has to wait; that wait also ends,
// without a message, when the run is cancelled or ready closes (the
// operator's start signal while the process still buffers, nil afterwards).
func (w *inst) next(ready <-chan struct{}) (m operator.Msg, ok bool) {
	select {
	case <-ready: // first: a start signal must not lose to a busy inbox
		return m, false
	default:
	}
	select {
	case m = <-w.inbox:
		return m, true
	default:
	}
	select {
	case m = <-w.inbox:
		return m, true
	case <-ready:
	case <-w.r.ctx.Done():
	}
	return m, false
}

// handle feeds one inbox message to the process. It reports false when the
// run was cancelled or failed mid-message.
func (w *inst) handle(m operator.Msg) bool {
	if m.Batch == nil {
		// The end of a simple join's build phase releases the held probe
		// input in arrival order.
		for _, held := range w.join.EOS(m.Port) {
			if !w.apply(held) {
				return false
			}
		}
		return true
	}
	if w.join.Hold(m) {
		return true
	}
	return w.apply(m)
}

// apply consumes one data batch: a join computes in its processor's slot —
// or partitions into its Grace join — and emits the result downstream, the
// collect hands the batch to the sink. The exhausted batch returns to the
// pool.
func (w *inst) apply(m operator.Msg) bool {
	switch {
	case w.op.Op.Kind == xra.OpCollect:
		// Ownership transfers with the Push; the consumer's release
		// (invoked on its Next past the batch, or during Close-drain)
		// returns it to the run's pool. Push blocks until the consumer
		// accepts the batch — the backpressure that makes the whole plan
		// stream — and fails only when the run is cancelled.
		batch := m.Batch
		n := batch.Len() // before Push: ownership transfers with it
		if err := w.r.sink.Push(w.r.ctx, batch, func() { w.r.putBatch(batch) }); err != nil {
			return false
		}
		w.r.resultTuples += n
		return true
	case w.grace != nil:
		// Partitioning may block on file I/O, which must not occupy a
		// modeled processor: it takes no slot. The join produces all output
		// in the drain after both operands ended.
		add := w.grace.AddProbe
		if m.Port == operator.Build {
			add = w.grace.AddBuild
		}
		if err := add(m.Batch); err != nil {
			w.r.fail(err)
			return false
		}
	default:
		w.slot.Lock()
		res := w.join.Apply(m)
		w.slot.Unlock()
		if res != nil && !w.out.Emit(res, operator.Insert) {
			return false
		}
	}
	w.r.putBatch(m.Batch)
	return true
}
