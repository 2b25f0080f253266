// Admission: who runs next, and with how much memory.
//
// The Engine admits every query and view population through one queue: at
// most WithMaxConcurrent of them execute at once, and while anyone waits a
// new arrival waits too, so that the policy, not timing, picks who starts
// next. The policy decides only the order and the memory:
//
//   - "fifo": arrival order, no reservation. Spill queries meet memory
//     pressure as they run, on the shared spill.Meter.
//   - "cost": shortest-job-first by the calibrated cost-model estimate,
//     with aging (waiting discounts a query's effective cost, so a large
//     query cannot be starved by a stream of small ones), plus memory
//     reservation — a spill query's estimated peak residency is reserved
//     from the shared meter at admission. A query whose reservation fits
//     runs unspilled; one that can never fit (estimate ≥ whole budget)
//     claims the whole budget instead, so memory consumers serialize —
//     each spills only its own structural overage, bounded by recursive
//     Grace partitioning (see hashjoin.Grace), instead of all thrashing
//     the meter together — while zero-memory queries keep filling free
//     execution slots.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// AdmissionPolicies lists the registry names accepted by
// WithAdmissionPolicy.
var AdmissionPolicies = []string{"fifo", "cost"}

// defaultUnitNanos is the per-work-unit wall cost assumed when the engine
// has no calibration: a few tens of nanoseconds per tuple action is the
// right order of magnitude on current hardware, and the cost policy only
// needs estimates on a consistent scale to order the queue.
const defaultUnitNanos = 25.0

// agingFactor is the SJF aging rate: every nanosecond spent waiting
// discounts agingFactor nanoseconds of estimated cost, so a queued query
// overtakes one estimated to be d cheaper after waiting d/agingFactor —
// bounded starvation instead of strict SJF.
const agingFactor = 4.0

// queryEstimate is the admission policy's view of one query, derived from
// the cost model before the query queues.
type queryEstimate struct {
	// units is the abstract work-unit total: the paper's JoinCost summed
	// over the tree plus per-tuple scan work.
	units float64
	// wall is units converted to predicted wall time on this host (the
	// engine's calibration, or defaultUnitNanos without one), assuming the
	// processor pool spreads the work.
	wall time.Duration
	// peakBytes is the predicted peak memory residency of a spill-runtime
	// query: fully buffered join operands plus pooled transport batches in
	// flight. Zero for runtimes that do not meter memory.
	peakBytes int64
}

// admitTicket accompanies one query through admission and release.
type admitTicket struct {
	est   queryEstimate
	meter *spill.Meter // the query's child meter; the cost policy reserves on it
	// reserved is the memory reservation granted at admission (zero under
	// fifo, for non-spill queries, and for grace-mode admissions).
	reserved int64
}

// waiter is one queued query.
type waiter struct {
	t   *admitTicket
	enq time.Time
	ch  chan struct{} // buffered 1; a grant sends exactly once
}

// admissionQueue is the engine's admission queue under either policy. It
// admits at most slots queries at once (slots <= 0 means unlimited) and
// queues every arrival while anyone waits. Under "fifo" the waiters start
// in arrival order and reserve no memory; under "cost" the cheapest by
// aged estimate starts first, and a spill query's estimated peak memory is
// reserved from the shared meter as it starts.
type admissionQueue struct {
	cost  bool
	slots int
	root  *spill.Meter

	closing   chan struct{} // closed by close(); wakes queued admits
	closeOnce sync.Once

	mu      sync.Mutex
	closed  bool
	running int
	waiters []*waiter // in arrival order
}

// newAdmissionQueue builds the engine's queue for the named policy.
func newAdmissionQueue(name string, slots int, root *spill.Meter) (*admissionQueue, error) {
	if name != "" && name != "fifo" && name != "cost" {
		return nil, fmt.Errorf("core: unknown admission policy %q (valid: fifo, cost)", name)
	}
	return &admissionQueue{cost: name == "cost", slots: slots, root: root, closing: make(chan struct{})}, nil
}

func (p *admissionQueue) name() string {
	if p.cost {
		return "cost"
	}
	return "fifo"
}

// admit blocks until t may start, ctx is done, or the queue is closed
// (ErrEngineClosed: engine shutdown must not leave waiters parked forever).
func (p *admissionQueue) admit(ctx context.Context, t *admitTicket) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrEngineClosed
	}
	if len(p.waiters) == 0 && p.startLocked(t) {
		p.mu.Unlock()
		return nil
	}
	w := &waiter{t: t, enq: time.Now(), ch: make(chan struct{}, 1)}
	p.waiters = append(p.waiters, w)
	// Re-evaluate immediately: with a memory-blocked spill query at the
	// head of the queue, a zero-memory arrival may be admissible right now
	// rather than at the next release/kick.
	p.grantLocked()
	p.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		p.abandonWait(w, t)
		return ctx.Err()
	case <-p.closing:
		p.abandonWait(w, t)
		return ErrEngineClosed
	}
}

// abandonWait takes a woken-for-another-reason waiter out of the queue —
// its context fired, or the engine closed, while it was parked.
func (p *admissionQueue) abandonWait(w *waiter, t *admitTicket) {
	p.mu.Lock()
	removed := p.removeLocked(w)
	if removed {
		// A departing waiter can unblock the queue: if w was the
		// memory-blocked head, grantLocked was holding every other
		// spill waiter behind it (head-of-line on memory), and a
		// smaller one may fit right now.
		p.grantLocked()
	}
	p.mu.Unlock()
	if !removed {
		// Lost the race: a grant landed between the wake-up and the
		// lock. Undo it — free the slot, return the reservation, and
		// re-evaluate the queue: without the kick the freed
		// reservation bytes would strand every memory-blocked waiter
		// until some unrelated release happened by.
		p.abandonGrant(t)
	}
}

func (p *admissionQueue) close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.closing)
	})
}

// abandonGrant undoes an admission whose query will never run — the queued
// context fired in the same instant a grant landed. The slot goes back, the
// ticket's memory reservation is settled, and the queue is re-evaluated so
// waiters blocked on that reservation do not stay stranded.
func (p *admissionQueue) abandonGrant(t *admitTicket) {
	p.release(t)
	t.meter.Settle()
	p.kick()
}

// startLocked takes a slot for t and, under cost, grants (or waives) its
// memory reservation. It reports false when t must wait: no slot, or its
// reservation does not fit yet while other queries are still running (their
// completion will free memory). A query whose estimate exceeds the whole
// budget claims exactly the budget instead — it then runs only when no
// other memory consumer does, with recursive Grace partitioning bounding
// the overage, rather than thrashing every sibling's residency. With
// nothing running, t always starts (waiting could then wait forever), in
// grace mode (unreserved) if its claim does not fit.
func (p *admissionQueue) startLocked(t *admitTicket) bool {
	if p.slots > 0 && p.running >= p.slots {
		return false
	}
	if p.cost && t.est.peakBytes > 0 && t.meter != nil {
		budget := t.meter.Budget()
		claim := t.est.peakBytes
		if claim > budget {
			claim = budget
		}
		switch {
		case p.root.Live()+claim <= budget:
			t.meter.Reserve(claim)
			t.reserved = claim
		case p.running > 0:
			return false
		}
	}
	p.running++
	return true
}

// grantLocked starts as many waiters as slots and memory allow: the
// longest waiting first under fifo, the best effective cost first under
// cost. There, a memory-blocked best waiter holds its place
// against other *memory consumers* (head-of-line on memory: skipping it
// for a smaller spill query would hand its freed memory away and starve it
// despite aging), but zero-memory waiters may still fill free slots — they
// cannot take the blocked query's memory, only compute that would
// otherwise sit idle.
func (p *admissionQueue) grantLocked() {
	memBlocked := false
	for len(p.waiters) > 0 {
		if p.slots > 0 && p.running >= p.slots {
			return
		}
		now := time.Now()
		eff := func(w *waiter) float64 {
			return float64(w.t.est.wall) - agingFactor*float64(now.Sub(w.enq))
		}
		best := -1
		for i, w := range p.waiters {
			if memBlocked && w.t.est.peakBytes > 0 {
				continue
			}
			if best < 0 || p.cost && eff(w) < eff(p.waiters[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := p.waiters[best]
		if !p.startLocked(w.t) {
			// Slots were checked above and zero-memory waiters always
			// start, so this is a memory block on a spill waiter.
			memBlocked = true
			continue
		}
		p.waiters = append(p.waiters[:best], p.waiters[best+1:]...)
		w.ch <- struct{}{}
	}
}

// removeLocked takes w out of the wait queue, reporting whether it was
// still queued.
func (p *admissionQueue) removeLocked(w *waiter) bool {
	for i, q := range p.waiters {
		if q == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return true
		}
	}
	return false
}

func (p *admissionQueue) release(t *admitTicket) {
	p.mu.Lock()
	p.running--
	p.grantLocked()
	p.mu.Unlock()
}

// kick re-evaluates waiters; the engine calls it when a query's meter
// reservation settles (memory freed without a slot changing hands).
func (p *admissionQueue) kick() {
	p.mu.Lock()
	p.grantLocked()
	p.mu.Unlock()
}

// scanTuples sums the cardinalities of the tree's base relations. The sum is
// an integer, so the order of the walk does not change it.
func scanTuples(n *jointree.Node, card func(leaf int) int) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return card(n.Leaf)
	}
	return scanTuples(n.Build, card) + scanTuples(n.Probe, card)
}

// estimateQuery derives the admission estimate for one planned query: work
// units from the paper's cost function over the tree's span cardinalities,
// wall time via the engine's calibration, and — for the spill runtime,
// the only memory-metered backend — peak residency from fully buffered
// join operands plus the pooled transport batches the plan's streams keep
// in flight.
func (e *Engine) estimateQuery(q Query, o Options, plan *xra.Plan) queryEstimate {
	spanCard := q.DB.SpanCard
	units := jointree.SubtreeWorkSpan(q.Tree, spanCard)
	units += q.Params.ScanUnits * float64(scanTuples(q.Tree, q.DB.Card))

	unitNanos := defaultUnitNanos
	if !e.cal.IsZero() {
		unitNanos = e.cal.UnitNanos
	}
	procs := e.procs.Size()
	if procs < 1 {
		procs = 1
	}
	est := queryEstimate{
		units: units,
		wall:  time.Duration(units * unitNanos / float64(procs)),
	}
	if o.Runtime == "spill" {
		var operands int64
		for _, j := range jointree.Joins(q.Tree) {
			n1 := spanCard(j.Build.Lo, j.Build.Hi)
			n2 := spanCard(j.Probe.Lo, j.Probe.Hi)
			operands += int64(n1+n2) * relation.TupleWireBytes
		}
		depth := o.ChannelDepth
		if depth < 1 {
			depth = parallel.DefaultChannelDepth
		}
		bt := o.BatchTuples
		if bt < 1 {
			bt = parallel.DefaultSpillBatchTuples
		}
		pooled := int64(plan.NumStreams()) * int64(depth+1) * int64(bt) * relation.TupleWireBytes
		est.peakBytes = operands + pooled
	}
	return est
}
