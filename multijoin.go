// Package multijoin is a reproduction of "Parallel Evaluation of Multi-Join
// Queries" (Annita N. Wilschut, Jan Flokstra, Peter M.G. Apers, SIGMOD 1995).
//
// The paper implements four strategies for parallelizing a multi-join query
// on PRISMA/DB — a shared-nothing, main-memory parallel DBMS — and compares
// them experimentally on up to 80 processors:
//
//   - SP (Sequential Parallel): joins one after another, each on all
//     processors;
//   - SE (Synchronous Execution): independent subtrees in parallel on
//     processor subsets proportional to subtree work;
//   - RD (Segmented Right-Deep): right-deep segments with shared build
//     phases and one probe pipeline per segment;
//   - FP (Full Parallel): every join on private processors, pipelining
//     hash-joins, everything concurrent.
//
// This package is the public facade over the implementation in internal/:
// the Wisconsin chain-query workload generator, the discrete-event-simulated
// PRISMA/DB machine, the two hash-join algorithms, the phase-1 cost
// optimizer, the four phase-2 strategies, and the experiment harness that
// regenerates every figure of the paper's evaluation. See README.md for a
// tour and EXPERIMENTS.md for measured results.
//
// A minimal one-shot execution:
//
//	db, _ := multijoin.NewDatabase(10, 5000, 1995)
//	tree, _ := multijoin.BuildTree(multijoin.WideBushy, 10)
//	q := multijoin.Query{
//		DB: db, Tree: tree, Strategy: multijoin.FP, Procs: 80,
//		Params: multijoin.DefaultParams(),
//	}
//	res, _ := multijoin.Exec(ctx, q) // simulated PRISMA/DB machine
//	fmt.Printf("response time %.2fs\n", res.Time.Seconds())
//
// A long-lived session serving concurrent queries against the resident
// database, with results streamed through a cursor instead of
// materialized — the PRISMA/DB shape, where the machine belongs to the
// system and queries share its processors and memory:
//
//	eng, _ := multijoin.Open(db,
//		multijoin.WithMaxConcurrent(16),
//		multijoin.WithEngineMemoryBudget(256<<20))
//	defer eng.Close()
//	rows, _ := eng.Query(ctx, q, multijoin.WithRuntime("parallel"))
//	for t := range rows.Iter() {
//		use(t)
//	}
//	if err := rows.Err(); err != nil { ... }
package multijoin

import (
	"context"

	"multijoin/internal/core"
	"multijoin/internal/costmodel"
	"multijoin/internal/dist"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/optimizer"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// Core types, re-exported for library users.
type (
	// Query is one parallel multi-join execution request.
	Query = core.Query
	// Result is the unified outcome of executing a query on any runtime:
	// the real join result, the response time (virtual or wall-clock,
	// distinguished by Virtual), the one statistics struct every runtime
	// fills, and — on the simulator, under Params.RecordUtilization — the
	// per-processor busy intervals (Procs) the utilization diagrams are
	// drawn from.
	Result = core.Result
	// ExecStats is the unified structural-counter set across runtimes.
	ExecStats = core.Stats
	// ExecOption is a functional option for Exec.
	ExecOption = core.Option
	// ExecOptions is the resolved option set a Runtime receives.
	ExecOptions = core.Options
	// Runtime is one pluggable execution backend for plans. Register
	// implementations with RegisterRuntime and select them per query with
	// WithRuntime. Runtimes stream their result into a Sink; Exec
	// materializes the stream, Engine.Query hands it to a Rows cursor.
	Runtime = core.Runtime
	// Sink is the push half of the streaming Runtime contract: runtimes
	// deliver result batches (with ownership transfer) to a Sink.
	Sink = core.Sink
	// Engine is a long-lived session over one database: it admits
	// concurrent queries, shares processors and one memory budget among
	// them, and streams results through Rows cursors. Create one with
	// Open.
	Engine = core.Engine
	// EngineOption configures an Engine at Open time.
	EngineOption = core.EngineOption
	// Rows is a streaming cursor over one query's result
	// (Next/Tuple/Err/Close, plus All and a range-over-func Iter).
	Rows = core.Rows
	// View is an engine-owned materialized view: the query's FP join
	// network stays resident and Apply maintains the result incrementally
	// from signed base-relation deltas. Create one with Engine.CreateView.
	View = core.View
	// ViewDelta is one base relation's signed change set for View.Apply:
	// tuples to insert and tuples to delete.
	ViewDelta = ivm.Delta
	// ViewApplyResult summarizes one Apply round: delta tuples consumed,
	// unmatched deletes dropped, net result changes, and the new result
	// cardinality.
	ViewApplyResult = ivm.ApplyResult
	// ViewChange is one signed result change (+1 insert, -1 delete) on a
	// view's change stream.
	ViewChange = ivm.Change
	// ViewChanges is a cursor over a view's signed change stream
	// (Next/Change/Close), obtained from View.Changes.
	ViewChanges = ivm.ChangeStream
	// BaseFunc resolves a plan leaf index to its base relation.
	BaseFunc = core.BaseFunc
	// Params is the simulated machine model.
	Params = costmodel.Params
	// Database is a generated Wisconsin chain database.
	Database = wisconsin.Database
	// DatabaseConfig configures database generation.
	DatabaseConfig = wisconsin.Config
	// Node is a join-tree node.
	Node = jointree.Node
	// Shape enumerates the five paper query-tree shapes.
	Shape = jointree.Shape
	// Strategy selects one of the four parallelization strategies.
	Strategy = strategy.Kind
	// Plan is a parallel execution plan in the XRA-like representation.
	Plan = xra.Plan
	// Relation is a named multiset of Wisconsin-style tuples.
	Relation = relation.Relation
	// Tuple is one Wisconsin-style tuple.
	Tuple = relation.Tuple
	// Catalog holds chain-query statistics for the phase-1 optimizer.
	Catalog = optimizer.Catalog
	// Space selects the phase-1 plan search space (linear or bushy).
	Space = optimizer.Space
)

// The four strategies of Section 3.
const (
	SP = strategy.SP
	SE = strategy.SE
	RD = strategy.RD
	FP = strategy.FP
)

// The five query shapes of Figure 8.
const (
	LeftLinear  = jointree.LeftLinear
	LeftBushy   = jointree.LeftBushy
	WideBushy   = jointree.WideBushy
	RightBushy  = jointree.RightBushy
	RightLinear = jointree.RightLinear
)

// Optimizer search spaces.
const (
	LinearSpace = optimizer.LinearSpace
	BushySpace  = optimizer.BushySpace
)

// Strategies lists all four strategies in the paper's order.
var Strategies = strategy.Kinds

// Shapes lists all five query shapes in the paper's order.
var Shapes = jointree.Shapes

// DefaultParams returns the calibrated machine model (see EXPERIMENTS.md for
// the calibration).
func DefaultParams() Params { return costmodel.Default() }

// NewDatabase generates a chain of `relations` Wisconsin relations with
// `card` tuples each — the paper's test database (Section 4.1).
func NewDatabase(relations, card int, seed int64) (*Database, error) {
	return wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: seed})
}

// BuildTree constructs one of the five paper query-tree shapes over k
// relations.
func BuildTree(s Shape, k int) (*Node, error) { return jointree.BuildShape(s, k) }

// ExampleTree returns the 5-way join tree of Figure 2 that the paper uses to
// illustrate the strategies.
func ExampleTree() *Node { return jointree.Example() }

// DefaultRuntime is the runtime Exec uses when WithRuntime is not given:
// "sim", the discrete-event simulator that reproduces the paper's figures.
const DefaultRuntime = core.DefaultRuntime

// Exec plans the query and executes it on one of the registered runtimes —
// the single execution entry point over every backend. With no options it
// runs on the simulated PRISMA/DB machine and reports virtual response
// time; WithRuntime selects another backend by registry name. The context
// cancels the execution on every runtime: the simulator aborts between
// events, the goroutine runtimes tear down every worker without leaks, the
// dist coordinator sends its workers CANCEL.
//
//	res, err := multijoin.Exec(ctx, q)                       // simulator
//	res, err := multijoin.Exec(ctx, q,
//	        multijoin.WithRuntime("parallel"),
//	        multijoin.WithMaxProcs(8), multijoin.WithVerify())
func Exec(ctx context.Context, q Query, opts ...ExecOption) (*Result, error) {
	return core.Exec(ctx, q, opts...)
}

// WithRuntime selects the execution backend by registry name: "sim" (the
// simulated PRISMA/DB machine), "parallel" (goroutines), "spill" (goroutines
// under a memory budget), "dist" (worker processes over loopback TCP), or
// any runtime added with RegisterRuntime.
func WithRuntime(name string) ExecOption { return core.WithRuntime(name) }

// WithMaxProcs sets the number of modeled processors on wall-clock
// runtimes: one slot each, held by a process while it computes, so the
// operation processes bound to one processor are serialized (the paper's
// shared-nothing nodes). Zero means the plan's own processor count.
func WithMaxProcs(n int) ExecOption { return core.WithMaxProcs(n) }

// WithBatchTuples sets the transport batch size (pipelining granularity).
// A materialized view (Engine.CreateView) takes it too, for its delta
// rounds.
func WithBatchTuples(n int) ExecOption { return core.WithBatchTuples(n) }

// WithChannelDepth sets, on wall-clock runtimes, how many batches each
// incoming tuple stream contributes to its consumer's inbox (a process's
// inbox holds depth × its incoming stream count batches); it is also the
// dist runtime's credit window per node-crossing stream. A materialized
// view's network (Engine.CreateView) obeys it like a query's.
func WithChannelDepth(n int) ExecOption { return core.WithChannelDepth(n) }

// WithMemoryBudget caps the spill runtime's live tuple memory at bytes:
// when pooled batches in flight plus buffered join operands exceed the
// budget, join operands overflow to temp-file partitions and the joins run
// Grace-style, partition-at-a-time:
//
//	res, err := multijoin.Exec(ctx, q,
//	        multijoin.WithRuntime("spill"),
//	        multijoin.WithMemoryBudget(16<<20)) // 16 MiB of live tuples
//
// Zero (the default) applies the spill runtime's 64 MiB default budget. The
// in-memory runtimes ignore the option.
func WithMemoryBudget(bytes int64) ExecOption { return core.WithMemoryBudget(bytes) }

// WithWorkers sets the worker-process count of the "dist" runtime — the
// distributed executor that partitions a plan's operation processes over n
// spawned worker OS processes (plan processor id p on worker p mod n, the
// collect process on the coordinator) and streams every node-crossing
// redistribution edge over loopback TCP:
//
//	res, err := multijoin.Exec(ctx, q,
//	        multijoin.WithRuntime("dist"),
//	        multijoin.WithWorkers(4)) // 4 worker processes
//
// Spawning workers by re-executing the current binary requires that main
// called InitDistWorker first; see its doc. Zero means the dist default
// (2); the single-process runtimes ignore the option.
func WithWorkers(n int) ExecOption { return core.WithWorkers(n) }

// WithVerify checks the result against the sequential reference execution
// and fails on the first discrepancy, wherever the result is materialized:
// Exec, Engine.Exec, or Rows.All. Streaming iteration over a Rows never
// materializes the result and therefore never verifies.
func WithVerify() ExecOption { return core.WithVerify() }

// InitDistWorker is the "dist" runtime's worker entry hook. Call it first
// thing in main (it is safe and cheap when the process is not a worker): in
// an ordinary process it only marks the binary as re-executable for worker
// spawning and returns; in a process the dist coordinator spawned it runs
// the worker protocol to completion and exits, never returning.
// Alternatively, set MJ_DIST_WORKER_BIN to a built cmd/mjworker binary and
// no hook is needed.
func InitDistWorker() { dist.InitWorker() }

// Open starts a long-lived session over db: an Engine that owns the shared
// resources every query it serves draws on — a processor pool capping
// concurrent computation across all in-flight queries (WithEngineProcs),
// one shared live-tuple memory budget that drives spilling when concurrent
// queries exceed it together (WithEngineMemoryBudget), default runtime and
// machine parameters, and an admission queue (WithMaxConcurrent) whose
// per-query wait is reported in ExecStats.QueueWait.
//
//	eng, err := multijoin.Open(db, multijoin.WithMaxConcurrent(16))
//	defer eng.Close()
//	rows, err := eng.Query(ctx, q, multijoin.WithRuntime("parallel"))
//	defer rows.Close()
//	for rows.Next() {
//		t := rows.Tuple()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
func Open(db *Database, opts ...EngineOption) (*Engine, error) { return core.Open(db, opts...) }

// WithEngineRuntime sets the engine's default runtime by registry name;
// individual queries may still override it with WithRuntime.
func WithEngineRuntime(name string) EngineOption { return core.WithEngineRuntime(name) }

// WithEngineParams sets the machine parameters applied to queries whose own
// Params are zero.
func WithEngineParams(p Params) EngineOption { return core.WithEngineParams(p) }

// WithMaxConcurrent caps how many of the engine's queries may execute at
// once; the rest wait in the admission queue. Zero means 2×GOMAXPROCS,
// negative means unlimited.
func WithMaxConcurrent(n int) EngineOption { return core.WithMaxConcurrent(n) }

// WithEngineProcs sets the size of the engine's shared processor pool — the
// modeled processors that serialize operator work across every in-flight
// query on the wall-clock runtimes and every open materialized view's delta
// rounds. Zero means GOMAXPROCS.
func WithEngineProcs(n int) EngineOption { return core.WithEngineProcs(n) }

// WithEngineMemoryBudget sets the engine's shared live-tuple memory budget
// for spill-runtime queries: concurrent queries account against one meter
// and spill when their combined residency exceeds it. Zero means the spill
// default (64 MiB).
func WithEngineMemoryBudget(bytes int64) EngineOption { return core.WithEngineMemoryBudget(bytes) }

// ErrViewClosed is the error View.Apply and View.Rows return once the view
// was closed — explicitly, or force-closed by engine shutdown.
var ErrViewClosed = ivm.ErrViewClosed

// AdmissionPolicies lists the admission-policy names WithAdmissionPolicy
// accepts: "fifo" (arrival order, the default) and "cost" (shortest
// estimated job first with aging and memory reservation).
var AdmissionPolicies = core.AdmissionPolicies

// WithAdmissionPolicy selects how the engine orders queries waiting for an
// execution slot. "fifo" admits them in arrival order and reserves nothing.
// "cost" admits the query with the smallest calibrated cost-model estimate
// first (aged, so large queries are not starved) and reserves a spill
// query's estimated peak memory from the shared budget at admission; a
// query whose estimate can never fit is admitted without a reservation and
// relies on recursive Grace partitioning to bound its memory.
func WithAdmissionPolicy(name string) EngineOption { return core.WithAdmissionPolicy(name) }

// Calibration holds measured per-tuple costs of this host — the output of
// Calibrate — and converts the cost model's abstract work units into
// predicted wall time. Pass it to Open via WithCalibration so cost-based
// admission orders queries by realistic estimates.
type Calibration = costmodel.Calibration

// CalibrateOptions tunes the calibration sweep (zero values mean defaults).
type CalibrateOptions = costmodel.CalibrateOptions

// Calibrate measures this host's per-tuple hash, probe and transport costs
// with short micro-runs and fits the cost model's unit scale to them:
//
//	cal, err := multijoin.Calibrate(multijoin.CalibrateOptions{})
//	eng, err := multijoin.Open(db, multijoin.WithCalibration(cal),
//	        multijoin.WithAdmissionPolicy("cost"))
func Calibrate(opt CalibrateOptions) (Calibration, error) { return costmodel.Calibrate(opt) }

// WithCalibration installs measured per-tuple costs (see Calibrate) as the
// engine's wall-time scale for admission estimates.
func WithCalibration(c Calibration) EngineOption { return core.WithCalibration(c) }

// RegisterRuntime adds an execution backend to the by-name registry used by
// Exec's WithRuntime option. Like database/sql driver registration it is
// meant for init time and panics on duplicate or empty names.
func RegisterRuntime(name string, rt Runtime) { core.RegisterRuntime(name, rt) }

// LookupRuntime resolves a registry name to its runtime; the error for an
// unknown name lists every registered runtime.
func LookupRuntime(name string) (Runtime, error) { return core.LookupRuntime(name) }

// RuntimeNames lists every registered runtime name, sorted.
func RuntimeNames() []string { return core.RuntimeNames() }

// HostCap bounds a plan's processor count by the host's real core count —
// the WithMaxProcs cap to use when executing plans generated for machines
// larger than this one. Plans keep their full processor count; only
// concurrent computation is capped.
func HostCap(procs int) int { return parallel.HostCap(procs) }

// Reference evaluates the tree sequentially — the correctness oracle.
func Reference(db *Database, tree *Node) *Relation { return core.Reference(db, tree) }

// Optimize runs phase 1 of the two-phase optimization: it returns a
// minimal-total-cost join tree for the catalog within the given search
// space.
func Optimize(c Catalog, space Space) (*Node, float64, error) {
	res, err := optimizer.Optimize(c, space)
	if err != nil {
		return nil, 0, err
	}
	return res.Tree, res.Cost, nil
}

// UniformCatalog returns the paper's regular catalog: k relations of equal
// cardinality with 1:1 joins.
func UniformCatalog(k int, card float64) Catalog { return optimizer.Uniform(k, card) }

// TwoPhase runs the complete pipeline of Section 1.2: phase 1 picks the
// cheapest tree, phase 2 parallelizes it and executes it on the simulated
// machine (Exec with no options).
func TwoPhase(db *Database, space Space, s Strategy, procs int, params Params) (*Node, *Result, error) {
	return core.TwoPhase(db, space, s, procs, params)
}

// Advice-related types: the paper's Section 5 guidelines as an API.
type (
	// Advice is a strategy recommendation.
	Advice = core.Advice
	// AdviseInput describes the situation to recommend a strategy for.
	AdviseInput = core.AdviseInput
)

// Advise applies the paper's Section 5 guidelines: SP for small machines or
// memory-constrained nodes, SE for wide bushy trees on large problems, RD
// for right-oriented trees (mirroring left-oriented ones first, which is
// free), FP otherwise.
func Advise(in AdviseInput) (Advice, error) { return core.Advise(in) }

// EncodePlan renders a plan in the textual XRA format.
func EncodePlan(p *Plan) string { return xra.Encode(p) }

// ParsePlan reads a plan in the textual XRA format.
func ParsePlan(text string) (*Plan, error) { return xra.Parse(text) }
