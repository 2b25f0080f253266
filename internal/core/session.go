// Session layer: a long-lived Engine that admits many concurrent queries
// against one resident database and streams their results through cursors.
//
// The paper's PRISMA/DB is a long-running parallel DBMS: the machine, its
// processors and its memory are owned by the system, not by any single
// query. Exec's one-shot shape (private runtime, materialized result, full
// teardown) cannot express that — two concurrent queries would each claim
// the whole machine. Open returns an Engine that owns the shared resources
// instead: one processor pool (parallel.ProcPool) capping concurrent
// computation across every in-flight query and keeping what is constant
// across them (batch pools, the shells of cached plans), one
// spill.Meter memory budget
// that concurrent spill queries draw down together, default runtime and
// machine parameters, and one admission queue whose wait is reported per
// query in Stats.QueueWait. Engine.Query returns a Rows
// cursor over the runtime's result stream — Volcano-style consumption
// (Next/Tuple) instead of materialization — with mid-iteration Close
// tearing the query's workers down without leaking goroutines, pooled
// batches, or spill temp files.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"time"

	"multijoin/internal/costmodel"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// ErrEngineClosed is returned by Engine.Query and Engine.Exec after Close.
var ErrEngineClosed = errors.New("core: engine is closed")

// sharedRes carries the engine-owned resources one session query executes
// against. procs is the engine's processor pool; meter is the per-query
// child of the engine's shared memory budget (nil for runtimes that do not
// account memory).
type sharedRes struct {
	procs *parallel.ProcPool
	meter *spill.Meter
}

// Engine is a long-lived session over one database: it admits concurrent
// queries, shares processors and memory among them, and streams results.
// All methods are safe for concurrent use. Close after the last query.
type Engine struct {
	db         *wisconsin.Database
	defaults   Options
	maxConc    int
	poolSize   int
	budget     int64
	policyName string
	cal        costmodel.Calibration

	queue *admissionQueue    // admission: arrival order (fifo) or cost-based SJF
	plans *planCache         // memoized strategy.Plan output by query shape
	procs *parallel.ProcPool // shared modeled processors, batch pools and plan shells (wall-clock runtimes)
	meter *spill.Meter       // shared memory budget (root; queries get children)

	mu      sync.Mutex
	closed  bool
	cursors map[*Rows]struct{} // open cursors whose resources are not yet settled
	views   map[*View]struct{} // open materialized views (CreateView)
	// idle is non-nil while a graceful Shutdown waits for the open cursors
	// to settle; dropCursor closes it when the last one does.
	idle chan struct{}
	// closeDone is closed once the first Close/Shutdown finished releasing
	// the engine's resources; later callers wait on it (idempotent close).
	closeDone chan struct{}
	inflight  sync.WaitGroup
}

// EngineOption configures an Engine at Open time.
type EngineOption func(*Engine)

// WithEngineRuntime sets the default runtime for the engine's queries, by
// registry name (default: DefaultRuntime). Individual queries may still
// override it with WithRuntime.
func WithEngineRuntime(name string) EngineOption {
	return func(e *Engine) { e.defaults.Runtime = name }
}

// WithEngineParams sets the default machine parameters applied to queries
// whose own Params are zero (default: costmodel.Default()).
func WithEngineParams(p costmodel.Params) EngineOption {
	return func(e *Engine) { e.defaults.Params = p }
}

// WithMaxConcurrent caps how many queries may execute at once; further
// Engine.Query calls wait in the admission queue (the wait is reported in
// the query's Stats.QueueWait) or fail when their context is cancelled
// first. Zero (the default) means 2×GOMAXPROCS; negative means unlimited.
func WithMaxConcurrent(n int) EngineOption {
	return func(e *Engine) { e.maxConc = n }
}

// WithEngineProcs sets the size of the engine's shared processor pool: the
// number of modeled processors (slots) that serialize the operator work of
// *all* in-flight queries on the wall-clock runtimes and of every open
// view's delta rounds, the session counterpart of WithMaxProcs. Zero (the
// default) means GOMAXPROCS.
// Under an engine, a per-query WithMaxProcs is ignored — the pool is the
// machine.
func WithEngineProcs(n int) EngineOption {
	return func(e *Engine) { e.poolSize = n }
}

// WithEngineMemoryBudget sets the engine's shared live-tuple memory budget
// in bytes for spill-runtime queries: all in-flight spill queries account
// against one meter, so spilling starts when their *combined* residency
// exceeds the budget — a per-query budget cannot protect a machine that
// runs many queries. Zero means spill.DefaultBudgetBytes. Under an engine,
// a per-query WithMemoryBudget is ignored.
func WithEngineMemoryBudget(bytes int64) EngineOption {
	return func(e *Engine) { e.budget = bytes }
}

// WithAdmissionPolicy selects how queued queries are admitted, by name:
// "fifo" (the default) admits in arrival order; "cost" orders the queue
// shortest-estimated-job-first with aging and reserves each spill query's
// estimated peak memory from the shared budget at admission, so a query
// that fits runs unspilled and one that can never fit is admitted with a
// Grace-partitioned budget instead of thrashing the pool.
func WithAdmissionPolicy(name string) EngineOption {
	return func(e *Engine) { e.policyName = name }
}

// WithCalibration supplies host-measured cost-model calibration
// (costmodel.Calibrate): the cost admission policy then orders the queue by
// predicted wall time on this machine instead of an assumed per-unit cost,
// and Stats.EstimatedCost reports the calibrated prediction.
func WithCalibration(c costmodel.Calibration) EngineOption {
	return func(e *Engine) { e.cal = c }
}

// Open starts a session over db: a long-lived Engine owning the shared
// processor pool, the shared memory budget, and the admission queue that
// every Engine.Query draws on.
//
//	eng, err := core.Open(db, core.WithMaxConcurrent(16))
//	defer eng.Close()
//	rows, err := eng.Query(ctx, q, core.WithRuntime("parallel"))
//	defer rows.Close()
//	for rows.Next() { use(rows.Tuple()) }
//	err = rows.Err()
func Open(db *wisconsin.Database, opts ...EngineOption) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("core: Open needs a database")
	}
	e := &Engine{
		db:       db,
		defaults: Options{Runtime: DefaultRuntime, Params: costmodel.Default()},
	}
	for _, opt := range opts {
		opt(e)
	}
	if _, err := LookupRuntime(e.defaults.Runtime); err != nil {
		return nil, err
	}
	if e.maxConc == 0 {
		e.maxConc = 2 * runtime.GOMAXPROCS(0)
	}
	e.procs = parallel.NewProcPool(e.poolSize)
	e.meter = spill.NewMeter(e.budget)
	e.plans = newPlanCache()
	e.cursors = make(map[*Rows]struct{})
	e.views = make(map[*View]struct{})
	e.closeDone = make(chan struct{})
	queue, err := newAdmissionQueue(e.policyName, e.maxConc, e.meter)
	if err != nil {
		e.procs.Close()
		return nil, err
	}
	e.queue = queue
	return e, nil
}

// Query plans q and starts executing it under the engine's shared
// resources, returning a streaming cursor over the result. The query's
// workers run concurrently with the caller; backpressure through the
// cursor paces them. q.DB defaults to the engine's database and a zero
// q.Params to the engine's default parameters. ctx bounds the whole query:
// cancelling it (or calling Rows.Close) tears the execution down.
func (e *Engine) Query(ctx context.Context, q Query, opts ...Option) (*Rows, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	rows, err := e.query(ctx, q, opts)
	if err != nil {
		e.inflight.Done()
		return nil, err
	}
	return rows, nil
}

func (e *Engine) query(ctx context.Context, q Query, opts []Option) (*Rows, error) {
	a, err := e.admit(ctx, q, opts, e.estimateQuery)
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithCancel(ctx)
	r := &Rows{
		admission: a,
		eng:       e,
		cancel:    cancel,
		ch:        make(chan pushed, cursorBuffer),
		done:      make(chan struct{}),
	}
	// Registered, Close/Shutdown can find and drain the cursor.
	if err := e.register(a, cancel, func() { e.cursors[r] = struct{}{} }); err != nil {
		return nil, err
	}

	go func() {
		res, err := a.rt.Execute(qctx, a.plan, a.q.baseRelation, (*querySink)(r), a.o)
		if res != nil {
			// The session's half of the report, said once, before any
			// reader can see the result.
			res.Stats.QueueWait = a.wait
			res.Stats.PlanCacheHit = a.planHit
			res.Stats.EstimatedCost = a.ticket.est.wall
			res.Stats.MemReserved = a.ticket.reserved
		}
		r.res, r.err = res, err
		close(r.ch) // no pushes after Execute returns; readers observe res/err
		e.queue.release(a.ticket)
		e.inflight.Done()
		cancel()
		close(r.done)
	}()
	return r, nil
}

// admission is a query (or a view's population) past the engine's front
// desk: defaults applied, options and runtime resolved, plan in hand, and
// the admission policy's grant held on ticket.
type admission struct {
	q       Query
	o       Options
	rt      Runtime
	plan    *xra.Plan
	planHit bool
	ticket  *admitTicket
	wait    time.Duration // time spent in the admission queue
}

// admit is the preamble Engine.Query and Engine.CreateView share: q.DB and
// a zero q.Params default to the engine's, the options resolve as in Exec
// over the engine's defaults, the plan comes from the plan cache, and the
// engine's admission queue decides when the query may start — arrival
// order under "fifo", calibrated shortest-job-first with memory
// reservation under "cost". estimate sizes the planned query for the
// queue. The wait is the queue wait the throughput experiment reports; a
// context cancelled while queued abandons the query before it consumed
// anything.
func (e *Engine) admit(ctx context.Context, q Query, opts []Option, estimate func(Query, Options, *xra.Plan) queryEstimate) (*admission, error) {
	if q.DB == nil {
		q.DB = e.db
	}
	if q.Params == (costmodel.Params{}) {
		q.Params = e.defaults.Params
	}
	o, rt, err := resolve(e.defaults, q, opts)
	if err != nil {
		return nil, err
	}
	plan, planHit, err := e.plans.plan(q)
	if err != nil {
		return nil, err
	}
	child := e.meter.Child()
	o.shared = &sharedRes{procs: e.procs, meter: child}
	a := &admission{q: q, o: o, rt: rt, plan: plan, planHit: planHit,
		ticket: &admitTicket{est: estimate(q, o, plan), meter: child}}
	start := time.Now()
	if err := e.queue.admit(ctx, a.ticket); err != nil {
		return nil, err
	}
	a.wait = time.Since(start)
	return a, nil
}

// undo hands an admission's grant back unused: the execution slot, the
// reservation and whatever the query's meter still holds.
func (e *Engine) undo(a *admission) {
	e.queue.release(a.ticket)
	a.ticket.meter.Settle()
	e.queue.kick()
}

// register makes an admitted query's cursor or view known to the engine
// (add runs under the engine's lock). Admission may have raced a concurrent
// Close: the engine is re-checked under the lock, and if it closed while
// the query was queued or populating, abandon tears down what the caller
// built and the grant is undone, so no slot, reservation or memory charge
// leaks into a torn-down engine.
func (e *Engine) register(a *admission, abandon, add func()) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		abandon()
		e.undo(a)
		return ErrEngineClosed
	}
	add()
	e.mu.Unlock()
	return nil
}

// dropCursor forgets a settled cursor and, when a graceful Shutdown is
// waiting, signals it once the last open cursor has settled.
func (e *Engine) dropCursor(r *Rows) {
	e.mu.Lock()
	delete(e.cursors, r)
	if e.idle != nil && len(e.cursors) == 0 {
		close(e.idle)
		e.idle = nil
	}
	e.mu.Unlock()
}

// Exec runs the query to completion under the engine's shared resources
// and returns the materialized result — Engine.Query plus Rows.All, for
// callers that want the classic Exec shape with session semantics
// (admission, shared processors and memory, QueueWait in the stats).
// WithVerify is honored here.
func (e *Engine) Exec(ctx context.Context, q Query, opts ...Option) (*Result, error) {
	rows, err := e.Query(ctx, q, opts...)
	if err != nil {
		return nil, err
	}
	rel, err := rows.All()
	if err != nil {
		return nil, err
	}
	res, _ := rows.Result()
	res.Result = rel
	return res, nil
}

// DB returns the engine's resident database.
func (e *Engine) DB() *wisconsin.Database { return e.db }

// MemoryLive returns the current live-byte balance of the engine's shared
// memory budget — pooled batches and buffered join operands of every
// in-flight spill query. It settles back to zero once all queries have
// completed or been closed.
func (e *Engine) MemoryLive() int64 { return e.meter.Live() }

// SpilledBytes returns the total bytes all of the engine's queries have
// written to spill partitions so far.
func (e *Engine) SpilledBytes() int64 { return e.meter.SpilledBytes() }

// PlanCacheStats returns the engine's cumulative plan-cache hit and miss
// counts. Every miss planned exactly once (singleflight), so misses equals
// the number of distinct query shapes planned.
func (e *Engine) PlanCacheStats() (hits, misses int64) { return e.plans.Stats() }

// AdmissionPolicy returns the name of the engine's admission policy
// ("fifo" or "cost").
func (e *Engine) AdmissionPolicy() string { return e.queue.name() }

// Close tears the engine down immediately: no new queries are admitted,
// queries still waiting in the admission queue fail with ErrEngineClosed,
// and every outstanding Rows cursor — streaming, or finished but never
// drained — is force-closed, releasing its pooled batches and settling its
// shared-budget reservation (such a cursor's Err reports ErrEngineClosed).
// Only then are the shared resources released, so after Close the meter's
// live balance is zero and no query goroutine survives. Close is
// idempotent and safe to call concurrently; it never blocks on a cursor
// nobody reads. For a drain that gives in-flight queries time to finish
// naturally, use Shutdown.
func (e *Engine) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // zero grace: force-close straight away
	return e.Shutdown(ctx)
}

// Shutdown closes the engine gracefully: new queries and queued admission
// waiters fail with ErrEngineClosed immediately, but queries already
// executing keep their cursors alive until their consumers drain them —
// up to ctx's deadline. Cursors still unsettled when ctx expires are
// force-closed exactly as by Close. Shutdown returns once every query
// goroutine has exited and the shared memory budget has settled to zero;
// like Close it is idempotent, and a second concurrent call waits for the
// first to finish.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.closeDone
		return nil
	}
	e.closed = true
	idle := make(chan struct{})
	if len(e.cursors) == 0 {
		close(idle)
	} else {
		e.idle = idle
	}
	e.mu.Unlock()
	defer close(e.closeDone)

	// Fail queued admits: a waiter granted a slot after this point is
	// undone by the registration re-check in query().
	e.queue.close()

	// Grace period: wait for the consumers to drain and settle every open
	// cursor. (The runtime goroutines exiting is not enough — a finished
	// execution's batches may still be in flight through the cursor.)
	select {
	case <-idle:
	case <-ctx.Done():
	}

	// Force-close whatever is still unsettled — cursors mid-stream when the
	// grace expired, and cursors whose execution finished but that nobody
	// drained (their pooled batches and reservations are still charged).
	e.mu.Lock()
	e.idle = nil
	open := make([]*Rows, 0, len(e.cursors))
	for r := range e.cursors {
		open = append(open, r)
	}
	views := make([]*View, 0, len(e.views))
	for v := range e.views {
		views = append(views, v)
	}
	e.mu.Unlock()
	for _, r := range open {
		r.closeWith(ErrEngineClosed)
	}
	// Views are resident until closed — they never settle on their own, so
	// a shutdown of any kind tears them down here (a blocked Apply fails
	// with ivm.ErrViewClosed and the residency charge settles to zero).
	for _, v := range views {
		v.Close()
	}
	e.inflight.Wait()
	e.procs.Close()
	return nil
}

// pushed is one result batch handed from the runtime to the cursor,
// together with the release that returns it to the runtime's pool.
type pushed struct {
	batch   *relation.Batch
	release func()
}

// free hands the batch back to the runtime's pool.
func (p pushed) free() {
	if p.release != nil {
		p.release()
	}
}

// querySink adapts a Rows into the Sink the runtime pushes into. (A
// separate type keeps Push off the cursor's public API.)
type querySink Rows

// cursorBuffer is the number of result batches a cursor's channel holds
// ahead of its consumer.
const cursorBuffer = 1

func (s *querySink) Push(ctx context.Context, batch *relation.Batch, release func()) error {
	select {
	case s.ch <- pushed{batch: batch, release: release}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Rows is a streaming cursor over one query's result — the database/sql
// shape over the runtime's push stream:
//
//	rows, err := eng.Query(ctx, q)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	        t := rows.Tuple()
//	        ...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Batches are pooled: the cursor holds one batch at a time and releases it
// back to the runtime's pool when Next, All or ReadBatch moves past it.
// Next/Tuple/Err/All/Iter are for one goroutine; Close may be called from
// any goroutine (and concurrently with Next) to abandon the query
// mid-iteration — it cancels the execution, drains and releases pending
// batches, and returns only after every worker goroutine has exited.
type Rows struct {
	*admission // the query, its resolved options, and its meter on the ticket
	eng        *Engine
	cancel     context.CancelFunc
	ch         chan pushed
	done       chan struct{} // closed when the runtime goroutine has exited

	// res (session stats included) and err are written by the runtime
	// goroutine before ch closes.
	res *Result
	err error

	mu        sync.Mutex
	closed    bool
	finished  bool
	delivered bool // at least one tuple was handed out through Next or ReadBatch
	// userCancelled records that Close tore down a still-running query —
	// the one case where a context.Canceled outcome is the caller's own
	// doing and Err reports nil. A run that already ended (external ctx
	// cancel, runtime failure) before Close keeps its error.
	userCancelled bool
	cur           pushed
	idx           int
	curTuple      relation.Tuple // copy of cur.tuples[idx]; survives a concurrent Close
	runErr        error          // final error exposed by Err

	closeOnce  sync.Once
	settleOnce sync.Once
}

// Next advances the cursor to the next result tuple, blocking until one is
// available, and reports whether there is one. It returns false when the
// stream ends (then Err reports how) and after Close.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur.batch != nil && r.idx+1 < r.cur.batch.Len() {
		r.idx++
	} else if !r.step() {
		return false
	}
	r.curTuple = r.cur.batch.Tuple(r.idx)
	r.delivered = true
	return true
}

// step releases the batch the cursor holds and receives the next non-empty
// one, positioned on its first tuple: the one place the cursor reads its
// stream. It is called and returns with r.mu held, dropping the lock while
// it releases and waits, and reports false once the stream has ended (the
// outcome is then recorded) or the cursor is closed.
func (r *Rows) step() bool {
	held := r.cur
	r.cur = pushed{}
	ended := r.closed || r.finished
	r.mu.Unlock()
	held.free() // consumed: the pooled batch goes back to the runtime
	for !ended {
		p, ok := <-r.ch
		if !ok {
			r.finish()
			break
		}
		if p.batch.Len() == 0 {
			p.free()
			continue
		}
		r.mu.Lock()
		if !r.closed {
			r.cur, r.idx = p, 0
			return true
		}
		r.mu.Unlock()
		p.free()
		break
	}
	r.mu.Lock()
	return false
}

// take hands use the tuples the cursor has not delivered yet, a batch at a
// time: from row lo of the batch it is positioned in, or else the whole of
// the next one (step). It reports false when there are none left.
func (r *Rows) take(use func(b *relation.Batch, lo int)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := r.idx + 1
	if r.cur.batch == nil || lo == r.cur.batch.Len() {
		if !r.step() {
			return false
		}
		lo = 0
	}
	use(r.cur.batch, lo)
	r.idx = r.cur.batch.Len() - 1
	r.delivered = true
	return true
}

// ReadBatch appends the cursor's next run of result tuples to dst — the
// rest of the batch Next left it in, or else the next batch the runtime
// pushed — and reports false when the stream ended (Err tells how) or the
// cursor was closed. It is the front door's read, one of the runtime's
// transport batches per call, copied by the column, so dst stays valid
// whatever a concurrent Close releases. It is a function and not a method
// so that Rows, which the multijoin facade exports, hands out tuples and
// never the runtime's batches.
func ReadBatch(r *Rows, dst *relation.Batch) bool {
	return r.take(func(b *relation.Batch, lo int) { dst.AppendRange(b, lo, b.Len()) })
}

// Tuple returns the tuple the cursor is positioned on: the one the last
// Next that returned true advanced to. A concurrent Close only stops
// further iteration — the copy returned here stays valid. It takes no
// lock: curTuple is written only by Next, on the goroutine that calls
// Tuple, and Close never touches it.
func (r *Rows) Tuple() relation.Tuple { return r.curTuple }

// finish records the execution outcome once the stream has been fully
// consumed.
func (r *Rows) finish() {
	<-r.done // res/err are now written; workers have exited
	r.mu.Lock()
	if !r.finished {
		r.finished = true
		r.runErr = r.err
	}
	r.mu.Unlock()
	r.settle()
}

// settle releases the query's outstanding shared-budget reservation (a
// cancelled run can strand pooled-batch accounting); it must run after the
// workers exited and the cursor released every batch it held. A settled
// cursor no longer needs a force-close at engine shutdown, and the engine's
// admission queue is poked: freed reservation bytes may admit a
// memory-blocked waiter.
func (r *Rows) settle() {
	r.settleOnce.Do(func() {
		r.ticket.meter.Settle()
		r.eng.dropCursor(r)
		r.eng.queue.kick()
	})
}

// Err returns the error that ended iteration, if any. It is nil while
// iterating, after a complete drain, and after a Close that abandoned a
// still-running query (that cancellation is the caller's own doing, not an
// error). A query whose context was cancelled externally reports
// context.Canceled even if the cursor is closed afterwards — a truncated
// stream must not read as a complete one.
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.userCancelled && errors.Is(r.runErr, context.Canceled) {
		return nil
	}
	return r.runErr
}

// Result returns the unified execution result (runtime name, response
// time, stats including QueueWait) once the cursor is exhausted or closed;
// ok is false while the query is still streaming. Result.Result is nil —
// the tuples went through the cursor.
func (r *Rows) Result() (*Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.finished {
		return nil, false
	}
	return r.res, r.res != nil
}

// Close abandons the query: it cancels the execution, releases every
// pending pooled batch, and returns once all of the query's goroutines
// have exited and its shared-budget reservation is settled. Closing a
// fully consumed or already closed cursor is a no-op. Close always returns
// nil; consumption errors are Err's.
func (r *Rows) Close() error {
	r.closeWith(nil)
	return nil
}

// closeWith is Close with an attributed cause. A nil cause is the caller's
// own Close — abandoning a still-running query is then deliberate and Err
// stays nil. A non-nil cause (the engine shutting down underneath the
// cursor) becomes the cursor's error: the consumer's stream was truncated
// by someone else and must not read as complete.
func (r *Rows) closeWith(cause error) {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		alreadyDone := r.finished
		r.closed = true
		if !alreadyDone && cause == nil {
			r.userCancelled = true
		}
		cur := r.cur
		r.cur = pushed{}
		r.mu.Unlock()
		r.cancel()
		cur.free()
		for p := range r.ch {
			p.free()
		}
		<-r.done
		r.mu.Lock()
		if !r.finished {
			r.finished = true
			if !alreadyDone {
				r.runErr = r.err
				if cause != nil {
					r.runErr = cause
				}
			}
		}
		r.mu.Unlock()
		r.settle()
	})
}

// All drains the cursor into a materialized relation and closes it — the
// bridge from the streaming API back to Exec's shape. If the query was
// started with WithVerify, the materialized result is checked against the
// sequential reference here; that check needs the *whole* result, so a
// verifying All on a cursor that already handed out tuples through Next or
// ReadBatch fails rather than reporting a spurious mismatch on the remainder.
func (r *Rows) All() (*relation.Relation, error) {
	r.mu.Lock()
	partial := r.o.Verify && r.delivered
	r.mu.Unlock()
	if partial {
		r.Close()
		return nil, errors.New("core: Rows.All with WithVerify needs the full stream; tuples were already consumed through Next or ReadBatch")
	}
	rel := relation.NewWithCap("result", r.q.tupleBytes(), r.q.estResultCard())
	for r.take(func(b *relation.Batch, lo int) { b.AppendRangeTo(rel, lo, b.Len()) }) {
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	r.Close()
	if r.o.Verify {
		if err := r.q.verify(rel, r.o.Runtime); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// Iter returns a Go 1.23 range-over-func iterator over the remaining
// tuples; the cursor is closed when iteration stops (including early
// break). Check Err afterwards for how the stream ended:
//
//	for t := range rows.Iter() {
//	        use(t)
//	}
//	if err := rows.Err(); err != nil { ... }
func (r *Rows) Iter() iter.Seq[relation.Tuple] {
	return func(yield func(relation.Tuple) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Tuple()) {
				return
			}
		}
	}
}
