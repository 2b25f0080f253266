// Materialized views: Engine-owned resident queries maintained
// incrementally (internal/ivm) instead of re-executed.
//
// CreateView runs the query once on the paper's FP (full pipelining)
// strategy and then keeps the plan's symmetric hash-join network resident,
// its join processes hosted on the engine's processor slots like a query's:
// every join operand table stays built, charged against the engine's
// shared memory budget exactly like an in-flight spill query's residency.
// View.Apply pushes signed base-relation deltas through the resident
// network, so refreshing the view after a small change costs work
// proportional to the delta's share of the data, not to the full query —
// the incremental-view-maintenance counterpart of the paper's observation
// that pipelining hash joins never rebuild state between tuples.
package core

import (
	"context"
	"sync"

	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/xra"
)

// View is an engine-owned materialized view over one query: the resident
// FP join network, whose top join's tables hold the result. All methods are
// safe for concurrent use with each other and with engine shutdown;
// Apply calls themselves serialize (one delta round at a time).
type View struct {
	eng   *Engine
	iv    *ivm.View
	child *spill.Meter

	closeOnce sync.Once
}

// CreateView plans q on the FP strategy (whatever q.Strategy says — a
// resident view is a pipelining network by construction), executes the
// initial population under the engine's admission policy, and registers
// the view with the engine. The admission slot is held only for the
// population; afterwards the view keeps just its memory charge (and any
// cost-policy reservation) on the shared budget until Close. Engine
// shutdown force-closes open views, failing a blocked Apply with
// ivm.ErrViewClosed.
func (e *Engine) CreateView(ctx context.Context, q Query, opts ...Option) (*View, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	return e.createView(ctx, q, opts)
}

func (e *Engine) createView(ctx context.Context, q Query, opts []Option) (*View, error) {
	// Admission covers the initial population — a full FP execution's worth
	// of work — and, under the cost policy, reserves the view's estimated
	// resident footprint from the shared budget for its whole lifetime.
	q.Strategy = strategy.FP
	a, err := e.admit(ctx, q, opts, e.estimateView)
	if err != nil {
		return nil, err
	}
	// The view's join processes run on the engine's processor slots and
	// batch pools, with the transport knobs a query resolves.
	child := a.ticket.meter
	iv, err := ivm.New(a.plan, a.q.baseRelation, parallel.Config{
		Pool:         a.o.shared.procs,
		BatchTuples:  a.o.BatchTuples,
		ChannelDepth: a.o.ChannelDepth,
	}, ivm.Config{TupleBytes: a.q.tupleBytes(), Meter: child})
	if err != nil {
		e.undo(a)
		return nil, err
	}
	v := &View{eng: e, iv: iv, child: child}
	if err := e.register(a, func() { iv.Close() }, func() { e.views[v] = struct{}{} }); err != nil {
		return nil, err
	}

	// Population done: the execution slot goes back to the queue. The
	// residency charge (and reservation) stays until View.Close.
	e.queue.release(a.ticket)
	e.queue.kick()
	return v, nil
}

// estimateView is the admission estimate for a view: the population's work
// units like any query, plus the resident footprint — both operand tables
// of every join stay built for the view's lifetime, so the peak estimate
// is the sum of all operand cardinalities rather than the transient
// pipeline residency of a one-shot run.
func (e *Engine) estimateView(q Query, o Options, plan *xra.Plan) queryEstimate {
	est := e.estimateQuery(q, o, plan)
	var operands int64
	spanCard := q.DB.SpanCard
	for _, j := range jointree.Joins(q.Tree) {
		n1 := spanCard(j.Build.Lo, j.Build.Hi)
		n2 := spanCard(j.Probe.Lo, j.Probe.Hi)
		operands += int64(n1+n2) * relation.TupleWireBytes
	}
	est.peakBytes = operands
	return est
}

// Apply pushes one batch of signed base-relation deltas through the view's
// resident network and returns once the view is exact again. Inserts apply
// before deletes within a round; a delete of an absent base tuple is
// dropped and counted in ApplyResult.Unmatched.
func (v *View) Apply(ctx context.Context, deltas ...ivm.Delta) (ivm.ApplyResult, error) {
	return v.iv.Apply(ctx, deltas...)
}

// Rows returns a snapshot of the view's current result multiset.
func (v *View) Rows(ctx context.Context) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v.iv.Rows()
}

// Changes returns a cursor over the view's signed change stream: every
// Apply round's net result changes, in round order, until the stream or
// the view is closed.
func (v *View) Changes() *ivm.ChangeStream { return v.iv.Changes() }

// ResultCard returns the current result cardinality without materializing.
func (v *View) ResultCard() int { return v.iv.ResultCard() }

// Resident returns the view's current resident bytes (its join operand
// tables, which also hold the result) — the amount charged to the engine's
// shared memory budget, before any admission reservation.
func (v *View) Resident() int64 { return v.iv.Resident() }

// Close tears the view's network down, settles its charge and reservation
// on the shared budget, and deregisters it from the engine. A blocked
// Apply fails with ivm.ErrViewClosed. Close is idempotent and safe to
// call concurrently with Apply and with engine shutdown.
func (v *View) Close() error {
	v.closeOnce.Do(func() {
		v.iv.Close()
		v.child.Settle()
		v.eng.dropView(v)
		v.eng.queue.kick()
	})
	return nil
}

// dropView forgets a closed view.
func (e *Engine) dropView(v *View) {
	e.mu.Lock()
	delete(e.views, v)
	e.mu.Unlock()
}
