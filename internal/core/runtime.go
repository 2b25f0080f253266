// Runtime abstraction: one pluggable execution API over every backend that
// can run an xra plan.
//
// The paper's central move is executing the *same* XRA plan on different
// machines — PRISMA/DB's 80-node shared-nothing cluster and analytical
// models. This file is that move as an API: a Runtime turns a plan plus
// base relations into a unified Result, and a by-name registry
// (registry.go) lets callers pick the backend — "sim", "parallel", "spill"
// or "dist" (runtimes.go) — without touching a different code path per
// backend. A further backend is a RegisterRuntime call, not a new API
// surface.
package core

import (
	"context"
	"fmt"
	"time"

	"multijoin/internal/costmodel"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/sim"
	"multijoin/internal/xra"
)

// BaseFunc resolves a plan leaf index to its base relation.
type BaseFunc func(leaf int) *relation.Relation

// Stats is the one counter set every runtime reports (operator.Stats,
// declared beside the Counters it embeds so that every runtime fills it
// directly and the adapters assign it whole).
type Stats = operator.Stats

// Result is the unified outcome of executing a plan on any runtime.
type Result struct {
	// Runtime is the registry name of the runtime that produced this
	// result.
	Runtime string
	// Virtual reports whether Time is virtual (simulated) rather than
	// wall-clock time.
	Virtual bool
	// Time is the response time: virtual time on the simulator (the
	// paper's metric, Figures 9-13), elapsed wall time on real runtimes.
	Time time.Duration
	// Result is the materialized final relation — the same multiset on
	// every runtime, verified against the sequential reference in tests.
	// Runtimes stream their result into a Sink and leave it nil; Exec (the
	// materializing adapter) fills it from a draining sink, while
	// Engine.Query hands the stream to a Rows cursor instead.
	Result *relation.Relation
	// Stats holds the unified structural counters.
	Stats Stats
	// Procs holds the per-processor busy intervals behind the paper's
	// utilization diagrams (Figures 3, 4, 6, 7). Only the simulator records
	// them, and only when Params.RecordUtilization is set; nil otherwise.
	Procs []*sim.Proc
}

// Sink consumes the result stream of one execution — the push half of the
// streaming Runtime contract (see operator.Sink for the ownership rules).
type Sink = operator.Sink

// Options parameterizes one execution, runtime-independently. Runtimes
// ignore the knobs that do not apply to them (the simulator has no
// channel depth; a wall-clock runtime has no virtual machine model beyond
// BatchTuples).
type Options struct {
	// Runtime is the registry name of the backend to execute on.
	// Empty means DefaultRuntime.
	Runtime string
	// Params is the simulated machine model (simulator) and the source of
	// the default batch size (all runtimes).
	Params costmodel.Params
	// MaxProcs caps concurrent computation on wall-clock runtimes. Zero
	// means the plan's own processor count.
	MaxProcs int
	// BatchTuples is the number of tuples per transport batch. Zero means
	// the executing runtime's own default (the simulator batches at
	// Params.BatchTuples, the goroutine runtimes at
	// parallel.DefaultBatchTuples).
	BatchTuples int
	// ChannelDepth is the inbox capacity each incoming stream contributes,
	// in batches, on wall-clock runtimes. Zero means the runtime's default.
	ChannelDepth int
	// MemoryBudget is the per-run live-tuple memory budget in bytes on the
	// spill runtime; join operands overflowing it are serialized to
	// temp-file partitions. Zero means spill.DefaultBudgetBytes. The
	// in-memory runtimes ignore it, and under an Engine session the
	// engine's shared budget (WithEngineMemoryBudget) takes its place.
	MemoryBudget int64
	// Workers is the number of worker processes the "dist" runtime spawns
	// (plan processor id p runs on worker p mod Workers). Zero means
	// dist.DefaultWorkers. Single-process runtimes ignore it.
	Workers int
	// Verify checks the result against the sequential reference execution
	// wherever it is materialized (Exec, Engine.Exec, Rows.All; runtimes
	// do not see the option). Cursor-style iteration over a Rows never
	// materializes and therefore never verifies.
	Verify bool

	// shared carries the engine-owned resources a session query executes
	// against (processor pool, memory-budget meter); nil outside an Engine
	// session. Set by Engine.Query only.
	shared *sharedRes
	// placement is the query database's resident placement, which the
	// in-process runtimes read their scans' fragments from. Set by resolve.
	placement *relation.Placement
}

// Option mutates Options — the functional options accepted by Exec.
type Option func(*Options)

// WithRuntime selects the execution backend by registry name ("sim",
// "parallel", "spill", "dist", or any registered runtime).
func WithRuntime(name string) Option { return func(o *Options) { o.Runtime = name } }

// WithMaxProcs sets the number of modeled processors on wall-clock
// runtimes: one slot each, held by a process while it computes, so the
// operation processes bound to one processor are serialized. Zero means the
// plan's own processor count.
func WithMaxProcs(n int) Option { return func(o *Options) { o.MaxProcs = n } }

// WithBatchTuples sets the transport batch size (pipelining granularity).
// A view (Engine.CreateView) takes it too, for its delta rounds.
func WithBatchTuples(n int) Option { return func(o *Options) { o.BatchTuples = n } }

// WithChannelDepth sets, on wall-clock runtimes, how many batches each
// incoming tuple stream contributes to its consumer's inbox: a process's
// inbox holds depth × its incoming stream count batches, so producers can
// run that far ahead of a consumer that has not been scheduled yet (see
// parallel.Config.ChannelDepth). It is also the dist runtime's credit
// window per node-crossing stream. A view's network (Engine.CreateView)
// obeys it like a query's.
func WithChannelDepth(n int) Option { return func(o *Options) { o.ChannelDepth = n } }

// WithMemoryBudget caps the spill runtime's live tuple memory at bytes:
// when pooled batches in flight plus buffered join operands exceed the
// budget, operand partitions overflow to temp files and the joins run
// Grace-style, partition-at-a-time. Zero (the default) means
// spill.DefaultBudgetBytes. The budget bounds tuple buffering during the
// partitioning phase, not total process RSS: the per-partition drain
// (re-reading one spilled partition into a hash table) is bounded
// structurally rather than metered. The in-memory runtimes ignore the
// option.
func WithMemoryBudget(bytes int64) Option { return func(o *Options) { o.MemoryBudget = bytes } }

// WithWorkers sets the worker-process count of the "dist" runtime: the
// plan's operation processes are partitioned round-robin over n spawned
// mjworker processes (processor id p on worker p mod n), with the collect
// process on the coordinator. Zero means dist.DefaultWorkers; the
// single-process runtimes ignore the option.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithVerify checks the result against the sequential reference execution.
func WithVerify() Option { return func(o *Options) { o.Verify = true } }

// Runtime is one execution backend for xra plans. Execute runs the plan
// against the base relations, streams the final result into sink (batch
// ownership transfers per Sink.Push), and returns the unified result with
// Result.Result nil — materialization, when wanted, is the sink's job (see
// Exec). It must honor ctx cancellation by returning promptly with the
// context's error and without leaking goroutines, even when the sink stops
// accepting batches mid-stream (a closed cursor).
type Runtime interface {
	// Name is the registry name the runtime is addressed by.
	Name() string
	// Execute runs one plan to completion or cancellation, pushing the
	// result stream into sink.
	Execute(ctx context.Context, plan *xra.Plan, base BaseFunc, sink Sink, opts Options) (*Result, error)
}

// Exec plans the query and executes it on the runtime selected by the
// options (default: the simulator), materializing the full result — the
// one-shot entry point, a thin adapter that drains the runtime's result
// stream into a relation. Long-lived sessions with
// streaming cursors and shared admission control are Open/Engine.Query:
//
//	res, err := core.Exec(ctx, q)                              // simulator
//	res, err := core.Exec(ctx, q, core.WithRuntime("parallel"),
//	        core.WithMaxProcs(8), core.WithVerify())           // goroutines
//
// The machine model is the query's own Params. BatchTuples, when unset, is
// left to the executing runtime's transport default (the simulator
// always batches at Params.BatchTuples — its cost-model granularity —
// while the goroutine runtimes default to parallel.DefaultBatchTuples).
func Exec(ctx context.Context, q Query, opts ...Option) (*Result, error) {
	o, rt, err := resolve(Options{}, q, opts)
	if err != nil {
		return nil, err
	}
	plan, err := q.Plan()
	if err != nil {
		return nil, err
	}
	sink := &operator.Gather{Rel: relation.NewWithCap("result", q.tupleBytes(), q.estResultCard())}
	res, err := rt.Execute(ctx, plan, q.baseRelation, sink, o)
	if err != nil {
		return nil, err
	}
	if res.Result == nil {
		res.Result = sink.Rel
	}
	if o.Verify {
		if err := q.verify(res.Result, rt.Name()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolve is the option resolution every entry point shares: the caller's
// defaults (none for Exec, the engine's for a session), the query's own
// machine parameters and its database's placement, then the per-call
// options, and the runtime they name.
func resolve(o Options, q Query, opts []Option) (Options, Runtime, error) {
	o.Params = q.Params
	if q.DB != nil {
		o.placement = q.DB.Placement()
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.Runtime == "" {
		o.Runtime = DefaultRuntime
	}
	rt, err := LookupRuntime(o.Runtime)
	return o, rt, err
}

// verify checks a materialized result against the sequential reference
// execution (Options.Verify: Exec, Engine.Exec, Rows.All).
func (q Query) verify(got *relation.Relation, runtime string) error {
	if diff := relation.DiffMultiset(got, Reference(q.DB, q.Tree)); diff != "" {
		return fmt.Errorf("core: %s %v result differs from reference: %s", runtime, q.Strategy, diff)
	}
	return nil
}
