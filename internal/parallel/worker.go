package parallel

import (
	"sync"
	"time"

	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// host is what owns a goroutine, an inbox and an outbox: the operation
// processes of one operator whose processors share a slot — all of the
// operator's processes on a one-slot machine, exactly one when the run has
// as many slots as the plan has processors, and always one in a partial run.
// The worker receives for all of them (operator.Msg.To names the process),
// joins in the state of the addressed one and sends through the one outbox,
// so what a redistribution edge costs in buffers, batches and end-of-stream
// marks follows the number of hosts, not of processes. Only a join step that
// says it takes a slot (operator.Join.TakesSlot: an in-memory one; an
// out-of-core step may block on file I/O) occupies the modeled processor:
// the worker takes the slot for one batch and holds it across no channel
// operation.
type host struct {
	r  *runtimeState
	op *opState
	// procs lists the hosted processes as ascending positions in Op.Procs;
	// their state is op.procs[i].
	procs []int
	// local reports whether the host runs on this node; a non-local host of
	// a partial run is only a routing target (its streams are served by the
	// transport) and is never launched.
	local bool

	// slot is the modeled processor the hosted processes compute on. A join
	// step is one batch, so waiting for the slot needs no cancellation case.
	slot *sync.Mutex

	// Input side: every producer host sends into inbox. open counts the
	// hosted processes still waiting for punctuation, and res is the result
	// buffer of whichever of them joins, drawn from the run's result pool.
	inbox chan operator.Msg
	open  int
	res   *relation.Batch
	// stash is the input that arrived while the operator's After
	// dependencies were pending; its memory serves every run of the shell.
	stash []operator.Msg
	// tables is the size of the hosted processes' tables as of the last
	// round's end (resident mode; Resident.tables sums them).
	tables int64

	// Output side (nil for collect): the outbox the hosted processes share
	// and its destinations.
	out   *operator.Outbox
	chans operator.Chans

	// wake hands a parked host its next run (true) or ends it (false); nil
	// unless the host's shell may be kept (runtimeState.launch).
	wake chan bool
}

// proc is the state of one operation process: what its host cannot share.
type proc struct {
	host *host
	pos  int // position in host.procs, which is how the outbox knows the process
	// join holds the process's own tables (or, out of core, its Grace
	// partitions), held probe input and punctuation count.
	join operator.Join
}

// run is the worker goroutine body: it serves the hosted processes (work)
// and, on every exit path — cancellation and failure included — releases
// and resets their joins, unless the network is resident: its tables hold
// the result Resident.Result reads, and Resident.Close releases them. The
// host that finishes the operator's last local process counts the operator
// complete for its dependents.
func (w *host) run() {
	defer w.r.wg.Done()
	finished := w.work()
	for _, i := range w.procs {
		if w.r.resident == nil {
			w.op.procs[i].join.Reset()
		}
	}
	if finished && w.op.remaining.Add(-1) == 0 {
		w.op.wallDone = time.Since(w.r.start)
		w.r.complete(w.op)
	}
}

// park is the goroutine of a host whose shell may be kept: it serves a run,
// parks until woken for the next, and returns once woken to stop.
func (w *host) park(wake <-chan bool) {
	defer w.r.procs.hosts.Done()
	for ok := true; ok; ok = <-wake {
		w.run()
	}
}

// work first buffers any input that arrives while the operator's After
// dependencies are pending — draining the inbox unconditionally is what makes
// dependency waiting deadlock-free: producers are never blocked forever by a
// consumer that is not allowed to start yet. Once the dependencies complete
// it replays the stash, each message to the process it is addressed to, and
// then processes live input until every incoming stream of every hosted
// process has ended. Only then does it drain the out-of-core joins and
// punctuate: a destination is ended once per host, after the last hosted
// process that could still send to it. A resident host has no dependencies
// to wait for (its joins are symmetric) and never runs out of input: at the
// end of every round it forwards the round's marks and waits for the next,
// until the network is closed. work reports whether the hosted processes
// finished.
func (w *host) work() bool {
	for waiting := len(w.op.After) > 0 && w.r.resident == nil; waiting; {
		m, ok := w.next(w.op.ready)
		switch {
		case ok:
			if w.stash == nil {
				// Producers block once the inbox is full, so its capacity
				// is what typically arrives before the dependencies end.
				w.stash = make([]operator.Msg, 0, cap(w.inbox))
			}
			w.stash = append(w.stash, m)
		case w.r.ctx.Err() != nil:
			return false
		default:
			waiting = false
		}
	}
	kind := w.op.Op.Kind
	if kind == xra.OpSimpleJoin || kind == xra.OpPipeJoin {
		for _, i := range w.procs {
			w.op.procs[i].join.Start(w.r.resident != nil, w.r.spill)
		}
		if w.r.results != nil {
			w.res = w.r.results.Get()
			defer w.r.results.Put(w.res)
		}
	}
	// Scan work is not charged to the processor (the simulator's near-zero
	// ScanUnits): on a local edge it lends its placed fragment view by view,
	// on a redistribution it scatters it into pooled transport batches.
	if kind == xra.OpScan {
		for k, i := range w.procs {
			if w.op.views == nil {
				if !w.out.EmitFrom(k, &w.op.Frags[i], operator.Insert) {
					return false
				}
				continue
			}
			for v := range w.op.views[i] {
				if !w.out.Lend(k, &w.op.views[i][v]) {
					return false
				}
			}
		}
	}
	for _, m := range w.stash {
		if !w.handle(m) {
			return false
		}
	}
	clear(w.stash)
	w.stash = w.stash[:0]
	for w.open > 0 {
		m, ok := w.next(nil)
		if !ok || !w.handle(m) {
			return false
		}
		if w.open == 0 && w.r.resident != nil && !w.endRound() {
			return false
		}
	}
	if w.r.ctx.Err() != nil {
		// Cancelled while draining: the partial output must not be
		// reported as a completed operator.
		return false
	}
	// An out-of-core join produces its results only now, outside the slot
	// like its partitioning; the drain ends early on a lost delivery.
	for k, i := range w.procs {
		err := w.op.procs[i].join.Drain(func(res *relation.Batch) error {
			if !w.out.EmitFrom(k, res, operator.Insert) {
				return w.r.ctx.Err()
			}
			return nil
		})
		if err != nil {
			w.r.cancel(err)
			return false
		}
	}
	// Flush remaining buffers and end every outgoing stream.
	return w.out == nil || w.out.Flush() && w.out.Punctuate()
}

// endRound ends a round of a resident host, whose processes have all seen
// its last mark: it publishes the change in their tables' size and their
// unmatched deletions, flushes, forwards the marks and re-arms for the next
// round.
func (w *host) endRound() bool {
	var bytes int64
	for _, i := range w.procs {
		j := &w.op.procs[i].join
		bytes += j.MemBytes()
		w.r.resident.unmatched.Add(j.Unmatched())
	}
	w.r.resident.tables.Add(bytes - w.tables)
	w.tables = bytes
	w.open = len(w.procs)
	return w.out.Flush() && w.out.Punctuate()
}

// next receives the host's next inbox message. It tries the plain receive
// first and selects only when it has to wait; that wait also ends, without
// a message, when the run is cancelled or ready closes (the operator's start
// signal while the host still buffers, nil afterwards).
func (w *host) next(ready <-chan struct{}) (m operator.Msg, ok bool) {
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

// handle feeds one inbox message to the process it is addressed to. It
// reports false when the run was cancelled or failed mid-message.
func (w *host) handle(m operator.Msg) bool {
	p := &w.op.procs[m.To]
	if m.Batch == nil {
		// The end of a simple join's build phase releases the held probe
		// input in arrival order.
		for _, held := range p.join.EOS(m.Port) {
			if !w.apply(p, held) {
				return false
			}
		}
		if p.join.Done() {
			w.open--
		}
		return true
	}
	if p.join.Hold(m) {
		return true
	}
	return w.apply(p, m)
}

// apply consumes one data batch for hosted process p: a join step computes —
// in its processor's slot if it takes one — and emits any result
// downstream, the collect hands the batch to the sink. The exhausted batch
// returns to the pool.
func (w *host) apply(p *proc, m operator.Msg) bool {
	if w.op.Op.Kind == xra.OpCollect {
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
	}
	slot := p.join.TakesSlot()
	if slot {
		w.slot.Lock()
	}
	res, err := p.join.ApplyInto(w.res, m)
	if slot {
		w.slot.Unlock()
	}
	if err != nil {
		w.r.cancel(err)
		return false
	}
	if res != nil && !w.out.EmitFrom(p.pos, res, m.Sign) {
		return false
	}
	w.r.putBatch(m.Batch)
	return true
}
