package core

import (
	"context"

	"multijoin/internal/dist"
	"multijoin/internal/engine"
	"multijoin/internal/parallel"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// The built-in backends register themselves like database/sql drivers; a
// further backend does the same from its own package.
func init() {
	RegisterRuntime("sim", simRuntime{})
	RegisterRuntime("parallel", poolRuntime{})
	RegisterRuntime("spill", poolRuntime{spill: true})
	RegisterRuntime("dist", distRuntime{})
}

// simRuntime executes plans on the discrete-event-simulated PRISMA/DB
// machine (package engine): virtual response time, deterministic, the
// source of every figure of the paper's evaluation.
type simRuntime struct{}

func (simRuntime) Name() string { return "sim" }

func (simRuntime) Execute(ctx context.Context, plan *xra.Plan, base BaseFunc, sink Sink, opts Options) (*Result, error) {
	res, err := engine.RunPlaced(ctx, plan, base, opts.placement, opts.Params, sink)
	if err != nil {
		return nil, err
	}
	return &Result{Runtime: "sim", Virtual: true, Time: res.Time, Stats: res.Stats, Procs: res.Procs}, nil
}

// poolRuntime executes plans with real goroutine concurrency (package
// parallel): one worker goroutine and one inbox per operator and processor
// slot, hosting the operator's processes on that slot, wall-clock time. It
// is registered twice. "parallel" keeps every join operand in memory.
// "spill" runs the same driver out of core by handing it a meter
// (parallel.Config.Meter): a private spill.NewMeter(Options.MemoryBudget),
// whose budget below 1 means spill.DefaultBudgetBytes, or under an Engine
// the query's child of the shared one. Every join process then runs the
// kernel's out-of-core step (operator.Join's Grace mode): join operands are
// hash-partitioned against the budget, overflow partitions are serialized to
// temp files, and the join drains partition-at-a-time — the
// memory-constrained scenario class the in-memory runtimes cannot run: the
// result multiset is identical, but peak tuple residency is bounded by the
// budget instead of the operand sizes.
type poolRuntime struct{ spill bool }

func (r poolRuntime) Name() string {
	if r.spill {
		return "spill"
	}
	return "parallel"
}

func (r poolRuntime) Execute(ctx context.Context, plan *xra.Plan, base BaseFunc, sink Sink, opts Options) (*Result, error) {
	cfg := parallel.Config{
		MaxProcs:     opts.MaxProcs,
		BatchTuples:  opts.BatchTuples,
		ChannelDepth: opts.ChannelDepth,
		Placement:    opts.placement,
	}
	if s := opts.shared; s != nil {
		// Engine session: shared processor slots, and for a spill query the
		// engine's shared memory budget (a per-query child meter) replaces
		// the private per-run budget, so concurrent queries spill against
		// their combined residency.
		cfg.Pool = s.procs
		if r.spill {
			cfg.Meter = s.meter
		}
	} else if r.spill {
		cfg.Meter = spill.NewMeter(opts.MemoryBudget)
	}
	res, err := parallel.RunStream(ctx, plan, base, cfg, sink)
	if err != nil {
		return nil, err
	}
	return wallResult(r.Name(), res), nil
}

// distRuntime executes plans across multiple OS processes (package dist):
// a coordinator partitions the plan's operation processes over
// Options.Workers spawned mjworker children and streams every node-crossing
// redistribution edge over loopback TCP as credit-windowed columnar batch
// blocks; the coordinator-side collect feeds the caller's Sink, so
// Engine.Query/Rows work over it transparently. Under an Engine session the
// shared processor pool and memory meter do not apply — each worker process
// schedules its own local processes (shared-nothing by construction).
type distRuntime struct{}

func (distRuntime) Name() string { return "dist" }

func (distRuntime) Execute(ctx context.Context, plan *xra.Plan, base BaseFunc, sink Sink, opts Options) (*Result, error) {
	cfg := dist.Config{
		Workers:      opts.Workers,
		BatchTuples:  opts.BatchTuples,
		ChannelDepth: opts.ChannelDepth,
	}
	res, err := dist.Run(ctx, plan, base, cfg, sink)
	if err != nil {
		return nil, err
	}
	return wallResult("dist", res), nil
}

// wallResult wraps a wall-clock run — goroutine or multi-process — in the
// unified Result: the runtimes fill the one Stats struct themselves.
func wallResult(name string, res *parallel.RunResult) *Result {
	return &Result{Runtime: name, Time: res.WallTime, Stats: res.Stats}
}
