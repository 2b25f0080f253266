// Package parallel executes xra plans with real goroutine concurrency — the
// wall-clock counterpart of the discrete-event simulator in package engine.
//
// The simulator reproduces the paper's *structural* cost effects on a
// virtual clock; this package runs the very same plans on the host machine
// so that the FP-vs-RD pipelining tradeoffs can be measured on real cores.
// The operation-process model — ports, punctuation, the join step, the
// outbox and who owns a batch when — is package operator's; this package is
// its goroutine driver, and it runs the plan the way the paper's machine
// does: a processor hosts its processes.
//
//   - the plan's processors are modeled as slots, plan processor id p on
//     slot p mod MaxProcs, and the operation processes of one operator whose
//     processors share a slot form a host: one worker goroutine, one inbox
//     (a channel of operator.Msg) and one outbox for all of them. Each
//     hosted process keeps what is its own — its operator.Join: hash tables
//     or Grace partitions, held probe input, punctuation count — and a
//     message names the process it is for (Msg.To), so every batch is still
//     one process's and the worker joins it in that process's state;
//   - the streams of the plan exist as routing decisions and end-of-stream
//     counts, not as channels or goroutines of their own, and what the
//     transport carries follows the hosts: the shared outbox fills one
//     buffer per consumer process, sends a full one straight into the inbox
//     of that process's host, and — once every hosted process has seen all
//     its input — ends each destination with one mark, so a consumer process
//     waits for one mark per producer host. An inbox holds ChannelDepth
//     batches per mark its hosted processes wait for. On MaxProcs slots a
//     redistribution edge between operators on n and m processors costs at
//     most min(n, MaxProcs) × m buffers and marks, not n × m; Processes,
//     Streams and the tuples moved stay the plan properties they are
//     (counted per tuple against the emitting process's processor), Batches
//     and Goroutines are what physically happened;
//   - a host of one process is the same code path: it is what every process
//     gets when the run has as many slots as the plan has processors, and
//     what every process of a partial run gets (dist's streams, credit
//     windows and wire format are per process);
//   - a worker computes a join step while it holds the lock of its slot, so
//     at most MaxProcs processes compute at once and the processes of one
//     processor are serialized, exactly like the paper's shared-nothing
//     nodes. The lock is held for one batch and never across a channel
//     operation (blocked processes occupy no processor, as on a real
//     machine), so a batch costs one hand-off: the inbox send that carries
//     it;
//   - Op.After start dependencies are honored without deadlock: a worker
//     whose operator's dependencies are pending keeps draining its inbox
//     into an unbounded stash (the simulator's "input arriving earlier is
//     buffered") and replays it, message by message to the process
//     addressed, once the dependencies complete;
//   - out of core (Config.Meter), every join process starts the kernel's
//     out-of-core join step (operator.Join given the run's operator.Spill):
//     it partitions its operands as they arrive, to disk once the meter is
//     over budget, and drains the partitions after both have ended. The host
//     asks the step whether it takes a slot, and this one does not, since it
//     may block on file I/O;
//   - in resident mode (RunResident, the network of a materialized view)
//     the same hosts outlive a run: every join starts symmetric, so After
//     dependencies are moot, and takes signed batches; a host that has the
//     last mark of a round publishes its tables' size, flushes, forwards the
//     marks and waits on its inbox for the next round, until Close. The
//     scans are not launched — the caller injects deltas through one source
//     outbox per scan — and the collect's inbox is the caller's to drain.
//     A view's processes thus take the same slots, batch pools and
//     transport knobs as the queries beside it.
//
// A blocking point that rarely blocks does not pay for one that does: inbox
// sends and receives try the plain channel operation first and select on the
// run's cancellation only when they would wait.
//
// The hot data path is allocation-free in steady state: tuple batches come
// from a relation.BatchPool and are returned by the consumer that exhausts
// them, and join results are built in one pooled buffer per worker. A scan
// on a local edge draws no batch at all: it lends its placed fragment as
// read-only, transport-sized views (operator.Outbox.Lend), which every pool
// drops, so the probe operands a simple join holds through its build phase
// no longer drain the pools, and out of core the budget does not count them:
// that memory is the database's. The placement itself is the database's
// too (Config.Placement, relation.Placement): a run reads its relations'
// resident fragments and lent views instead of fragmenting them, and this
// package holds none. What is constant across the queries of an engine
// session — the un-metered batch pools, result buffers included, and the
// shell of each plan it runs — lives with the session's ProcPool, not with
// the run. A run's shell is what follows from the plan, the resolved Config
// and the base relations alone: the wiring, the operators' processes with
// their join states, the hosts with their inboxes, outboxes and
// destinations, and the pools. A run builds it and arms it (its context,
// the operators' one-shot signals, the fragments and lent views, the hosts'
// input counts and transport counters); an in-memory run on a ProcPool that
// completes leaves it to the pool, and the next run of the same plan on the
// same relations only arms it. The hosts of such a shell keep their
// goroutines: each parks when its run ends and the next run wakes it, so a
// warm run starts no goroutine, and whatever drops the shell — eviction, a
// run on other relations, cancellation, ProcPool.Close — ends them. Result
// equivalence against the sequential reference is asserted for every
// strategy in the tests.
package parallel

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// HostCap returns procs bounded by the host's GOMAXPROCS: the MaxProcs to
// use when a plan targets more processors than the machine has cores.
// Plans must keep their full processor count (RD and FP need one processor
// per concurrently executing join); only the slot count is capped.
func HostCap(procs int) int {
	if n := runtime.GOMAXPROCS(0); procs > n {
		return n
	}
	return procs
}

// Sink consumes the final result stream of one run; Push backpressure
// propagates upstream through the plan's inboxes.
type Sink = operator.Sink

// Bounds of the state a ProcPool keeps between runs.
const (
	// poolRetainBytes is what each resident batch pool may hold idle. It was
	// sized against RD's held probe operands, which scans now lend instead
	// (relation.Placement.Lend); it stays for the pipelining joins'
	// redistributed operands and results in flight, which the next query
	// draws back: measured on mjperf serve_fp_stream, 1 MiB raised the
	// allocation from 1 183 to 1 487 KiB per query.
	poolRetainBytes = 4 << 20
	// maxResidentPools bounds the batch capacities that get a resident pool
	// (the default transport sizes are five); a run asking for yet another
	// capacity gets a pool of its own.
	maxResidentPools = 16
	// maxIdleShells bounds the finished runs' shells kept for the next run of
	// their plan; keeping one more evicts them all. A serving workload runs a
	// handful of plans a few at a time.
	maxIdleShells = 16
)

// ProcPool is a shared set of modeled processors — one slot (lock) each,
// taken by the workers of *every* run configured with the pool
// (Config.Pool) for the length of one join step. It is the session-level
// resource that caps concurrent computation across in-flight queries, and
// it owns what those queries would otherwise rebuild each time: the
// un-metered batch pools, one per batch capacity, byte-bounded, and the
// shells of finished in-memory runs, count-bounded: the wiring, hosts,
// inboxes, outboxes and join states of a plan, which the next run of the
// same plan re-arms instead of building them again. All of it is dropped by
// Close. It holds no placement — the base relations' fragments are their
// database's (Config.Placement). The goroutines it owns are its idle shells'
// hosts, parked until the next run of their plan wakes them (Parked counts
// them); Close ends them, and returns once each has left its loop.
type ProcPool struct {
	slots []sync.Mutex
	hosts sync.WaitGroup // the goroutines of hosts that park (runtimeState.launch)

	mu     sync.Mutex // guards the fields below
	pools  map[int]*relation.BatchPool
	shells map[shellKey][]*runtimeState
	idle   int // the shells kept
	parked int // their hosts' goroutines
}

// shellKey identifies the runs that may share a shell: one plan under one
// resolved Config.
type shellKey struct {
	plan *xra.Plan
	cfg  Config
}

// NewProcPool returns a pool of n modeled processors (n < 1 means
// GOMAXPROCS). Plan processor id p takes slot p mod n.
func NewProcPool(n int) *ProcPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &ProcPool{slots: make([]sync.Mutex, n), shells: make(map[shellKey][]*runtimeState)}
}

// Size returns the number of modeled processors (slots).
func (p *ProcPool) Size() int { return len(p.slots) }

// Close drops the resident batch pools and the idle shells, and returns
// once their parked hosts have left their loops and touch nothing more (a
// host goroutine still counted right after Close is one Go has not reaped
// yet). It must not be called while runs still use the pool; a result
// batch released afterwards goes to a pool nothing draws from any more.
func (p *ProcPool) Close() {
	p.mu.Lock()
	p.dropIdle()
	p.pools = nil
	p.mu.Unlock()
	p.hosts.Wait()
}

// Parked returns the number of goroutines the idle shells' hosts hold
// parked: with no run in flight, what the pool adds to the process's
// goroutines.
func (p *ProcPool) Parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked
}

// dropIdle drops the idle shells and stops their hosts; p.mu is held.
func (p *ProcPool) dropIdle() {
	for _, list := range p.shells {
		for _, r := range list {
			r.stop()
		}
	}
	clear(p.shells)
	p.idle, p.parked = 0, 0
}

// index returns which modeled processor serves plan processor id proc. The
// scheduler host's pseudo id (xra.HostProc, negative) wraps around like any
// other.
func (p *ProcPool) index(proc int) int {
	i := proc % len(p.slots)
	if i < 0 {
		i += len(p.slots)
	}
	return i
}

// batchPool returns the resident pool of batches with capacity size.
func (p *ProcPool) batchPool(size int) *relation.BatchPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	bp := p.pools[size]
	if bp == nil {
		bp = relation.NewBatchPool(size, max(1, poolRetainBytes/(size*relation.TupleWireBytes)))
		if len(p.pools) < maxResidentPools {
			if p.pools == nil {
				p.pools = make(map[int]*relation.BatchPool)
			}
			p.pools[size] = bp
		}
	}
	return bp
}

// reuse takes an idle shell of plan under cfg (resolved); nil if there is
// none or if its scans do not read the relations base returns, in which
// case the shell is dropped and its hosts stopped.
func (p *ProcPool) reuse(plan *xra.Plan, cfg Config, base func(leaf int) *relation.Relation) *runtimeState {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	list := p.shells[shellKey{plan, cfg}]
	if len(list) == 0 {
		p.mu.Unlock()
		return nil
	}
	r := list[len(list)-1]
	p.shells[shellKey{plan, cfg}], p.idle, p.parked = list[:len(list)-1], p.idle-1, p.parked-r.goroutines
	p.mu.Unlock()
	for _, os := range r.ops {
		if os.Op.Kind == xra.OpScan && base(os.Op.Leaf) != os.rel {
			r.stop()
			return nil
		}
	}
	return r
}

// Config parameterizes one parallel execution.
type Config struct {
	// MaxProcs is the number of modeled processors: one slot each. Plan
	// processor id p maps to slot p mod MaxProcs; the processes of one
	// operator on one slot share a worker, and a worker holds its slot while
	// it computes, so at most MaxProcs operation processes compute at any
	// instant and processes sharing a plan processor are serialized. Zero
	// means the plan's own processor count (MaxProc+1), i.e. the machine the
	// plan was generated for, where every process has a worker of its own.
	MaxProcs int
	// BatchTuples is the number of tuples per transport batch (the
	// pipelining granularity and the batch-pool capacity). Zero means
	// DefaultBatchTuples.
	BatchTuples int
	// ChannelDepth is the buffer capacity, in batches, each incoming tuple
	// stream contributes to its consumer's inbox, a stream being what the
	// transport carries: a worker's inbox holds ChannelDepth batches per
	// producer worker (one on a local edge) of every process it hosts, so
	// every producer can run a few batches ahead of a consumer that has not
	// been scheduled yet. It is resolved once per run, not per edge, and is
	// also the credit window of each node-crossing stream in the distributed
	// runtime. Zero means DefaultChannelDepth.
	ChannelDepth int

	// Pool, when set, executes this run's operator work on the slots of a
	// shared, long-lived ProcPool instead of a private set — the engine
	// session mode, where one set of modeled processors caps concurrent
	// computation across every in-flight query. MaxProcs is ignored; the
	// pool's size takes its place. Unless the run is out of core it also
	// draws its batches from the pool's resident batch pools and leaves its
	// shell to the pool.
	Pool *ProcPool

	// Placement, when set, is the base relations' resident placement (their
	// database's, wisconsin.Database.Placement): the scans read their
	// fragments and lent views from it, so a run of an already placed
	// relation copies nothing. Nil fragments the base relations per run.
	// Partial and resident runs place nothing.
	Placement *relation.Placement

	// Meter, when set, switches the run to out-of-core mode (the "spill"
	// runtime) and accounts it against the meter's budget: a private
	// spill.NewMeter or an engine session's shared child. Live pooled
	// batches and buffered join operands are accounted in bytes — not the
	// views a scan lends on a local edge, whose memory is the database's
	// placed fragments — every join process runs the kernel's out-of-core
	// join step (a Grace join, hashjoin.Grace), and operand tuples
	// overflowing the budget are serialized to temp-file partitions that are
	// re-read partition-at-a-time once both operands ended. Nil keeps the in-memory
	// pipelining execution. The caller owns the meter's lifecycle (Settle).
	//
	// Out-of-core mode trades the paper's pipelining for the memory
	// bound: every join materializes (partitioned, possibly on disk)
	// before producing output, and join work runs without holding the
	// processor's slot, since it may block on file I/O. The result multiset
	// is identical to the in-memory runtimes.
	//
	// The budget bounds the partitioning phase (buffered operands plus
	// pooled batches in flight); the drain phase additionally meters the
	// one hash table it rebuilds at a time (its residency stays bounded
	// structurally at ~1/hashjoin.GraceFanout of one operand per process,
	// but the reservation is visible, so concurrent runs on a shared meter
	// spill in response).
	Meter *spill.Meter

	// Partial, when set, executes only the operation processes placed on
	// this node and hands node-crossing streams to the configured transport
	// (the distributed runtime's reuse seam — see Partial). Incompatible
	// with Pool and with out-of-core mode (Meter).
	Partial *Partial
}

// Defaults for Config zero values.
//
// DefaultBatchTuples is the transport vector size of the goroutine
// runtimes, deliberately larger than the simulator's cost-model granularity
// (costmodel.Params.BatchTuples): every batch send costs an inbox
// operation, so with columnar batches the per-batch overhead amortizes over
// 4x more tuples while a batch still stays a few KB of cache-warm columns.
// DefaultSpillBatchTuples is the transport vector size of memory-budgeted
// (out-of-core) runs. Pooled batches are metered against the run's budget,
// so smaller vectors keep the accounting granularity — and the residency a
// blocked stream pins — fine enough for tight budgets to keep their
// meaning.
const (
	DefaultBatchTuples      = 256
	DefaultSpillBatchTuples = 64
	DefaultChannelDepth     = 4
)

func (c Config) withDefaults(plan *xra.Plan) Config {
	if c.Pool != nil {
		c.MaxProcs = c.Pool.Size()
	} else if c.MaxProcs < 1 {
		c.MaxProcs = plan.MaxProc() + 1
		if c.MaxProcs < 1 {
			c.MaxProcs = 1
		}
	}
	if c.BatchTuples < 1 {
		if c.Meter != nil {
			c.BatchTuples = DefaultSpillBatchTuples
		} else {
			c.BatchTuples = DefaultBatchTuples
		}
	}
	if c.ChannelDepth < 1 {
		c.ChannelDepth = DefaultChannelDepth
	}
	return c
}

// Stats is the unified counter set (operator.Stats); a parallel run fills
// the structural counters, Goroutines, MaxProcs, OpDone and, when
// Config.Meter was set, the out-of-core counters.
type Stats = operator.Stats

// RunResult is the outcome of one parallel execution.
type RunResult struct {
	// WallTime is the elapsed real time from launch to the completion of
	// the last operation process.
	WallTime time.Duration
	// Stats holds the run's counters.
	Stats Stats
}

// opState is the shared runtime state of one plan operator.
type opState struct {
	*operator.Node
	// rel is a scan's base relation, which arm places (nil in a partial run
	// and in a resident network), and size the tuples the operator's
	// outboxes' buffers start at, which is the size of the views a scan
	// lends; views is a scan's placed fragments lent at that size, per
	// process, and nil unless the scan feeds a local edge.
	rel   *relation.Relation
	size  int
	views [][]relation.Batch
	procs []proc  // the operator's processes, by position in Op.Procs
	hosts []*host // the workers they are grouped under, in order of first process
	// locals is the number of hosts placed on this node (all of them unless
	// the run is partial).
	locals int

	// ready is closed once pending, the count of After dependencies not yet
	// complete, reaches zero; remaining counts the local hosts still running.
	ready     chan struct{}
	pending   atomic.Int32
	remaining atomic.Int32
	wallDone  time.Duration // written by the host that completes the operator
}

// runtimeState carries one execution. Its shell — the wiring, the operators'
// processes, hosts, inboxes and outboxes, the pools — is built from the plan,
// the resolved Config and the base relations; everything else is armed per
// run. An in-memory run on a ProcPool leaves its shell to the pool, whose
// next run of the plan on the same relations re-arms it.
type runtimeState struct {
	wiring  *operator.Wiring
	cfg     Config
	ctx     context.Context
	procs   *ProcPool // the modeled processors: cfg.Pool, or the run's own
	streams int       // the plan's streams (xra.Plan.NumStreams)
	retain  int       // free-list bound of the run's own pools
	// pools maps batch capacity to pool. It is read-only once built: a
	// cursor may release an earlier run's result batches (putBatch) while
	// the next run on the shell is going.
	pools    map[int]*relation.BatchPool
	results  *relation.BatchPool // join hosts' result buffers; nil unless the run has in-memory joins
	ops      []*opState          // plan order, indexed by Node.Index
	spill    *operator.Spill     // what the joins spill into; nil unless the run is out of core
	partial  *Partial            // nil for whole-plan (single-node) runs
	resident *Resident           // nil unless the network is resident (RunResident)

	// sink receives the final result stream from the collect process (nil
	// only on nodes of a partial run that do not host it); resultTuples
	// counts what was pushed.
	sink         Sink
	resultTuples int

	// cancel ends the run: with nil when it is over, with the error when a
	// goroutine fails (spill I/O). The first call sets ctx's cause, and every
	// other goroutine unwinds as if the caller had cancelled.
	cancel context.CancelCauseFunc

	start      time.Time
	wg         sync.WaitGroup
	goroutines int
}

// RunStream executes the plan: the collect process pushes each pooled
// result batch into sink (transferring ownership; the consumer's release
// returns it to the run's pool), Push backpressure propagates upstream
// through the plan's inboxes, and every worker selects on ctx.Done()
// wherever it waits, so cancelling ctx tears the whole process tree down —
// no goroutine of the run outlives the call, since a cancelled run's shell
// is not kept — and the context's error is returned. sink may be nil only
// in a partial run that does not host the collect process.
func RunStream(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config, sink Sink) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if cfg.Partial != nil {
		if cfg.Partial.Local == nil {
			return nil, fmt.Errorf("parallel: Partial needs a Local placement function")
		}
		if cfg.Partial.Ingress == nil || cfg.Partial.Egress == nil {
			return nil, fmt.Errorf("parallel: Partial needs Ingress and Egress transport hooks")
		}
		if cfg.Pool != nil || cfg.Meter != nil {
			return nil, fmt.Errorf("parallel: Partial is incompatible with Pool and out-of-core mode")
		}
	}
	r := cfg.Pool.reuse(plan, cfg.withDefaults(plan), base)
	if r == nil {
		var err error
		if r, err = newRuntime(plan, cfg); err != nil {
			return nil, fmt.Errorf("parallel: %w", err)
		}
		if r.cfg.Meter != nil {
			// Every partition file lives in the run's temp directory. Each join
			// closes its own as its host exits; removing the directory once every
			// goroutine has exited is the backstop.
			dir, err := os.MkdirTemp("", "mjspill-")
			if err != nil {
				return nil, fmt.Errorf("parallel: spill dir: %w", err)
			}
			defer os.RemoveAll(dir)
			r.spill = &operator.Spill{Meter: r.cfg.Meter, Dir: dir, Pool: r.transportPool(r.cfg.BatchTuples)}
		}
		if r.partial != nil && r.partial.BatchPool != nil {
			r.pools[r.cfg.BatchTuples] = r.partial.BatchPool
		}
		if err := r.build(base); err != nil {
			return nil, fmt.Errorf("parallel: %w", err)
		}
	}
	if sink == nil && r.ops[r.wiring.Collect.Index].locals > 0 {
		r.stop()
		return nil, fmt.Errorf("parallel: RunStream needs a sink")
	}
	r.sink = sink
	r.arm(ctx)
	defer r.cancel(nil)
	r.start = time.Now()
	r.launch()
	r.wg.Wait()
	if err := cmp.Or(ctx.Err(), context.Cause(r.ctx)); err != nil {
		r.stop()
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return r.finish(), nil
}

// newRuntime wires plan and resolves cfg into the state of one execution,
// on cfg.Pool or on a ProcPool of its own.
func newRuntime(plan *xra.Plan, cfg Config) (*runtimeState, error) {
	w, err := operator.Wire(plan)
	if err != nil {
		return nil, err
	}
	r := &runtimeState{
		wiring:  w,
		cfg:     cfg.withDefaults(plan),
		procs:   cfg.Pool,
		pools:   make(map[int]*relation.BatchPool),
		ops:     make([]*opState, len(w.Nodes)),
		partial: cfg.Partial,
	}
	r.streams = plan.NumStreams()
	r.retain = min(r.streams*(r.cfg.ChannelDepth+1), relation.MaxPoolRetain)
	if r.procs == nil {
		r.procs = NewProcPool(r.cfg.MaxProcs)
	}
	return r, nil
}

// build groups every operator's processes into hosts with one inbox each,
// estimates the operators' cardinalities from the base relations and points
// every host's outbox at the inboxes of its consumers' hosts: the shell of
// the run, which arm readies.
func (r *runtimeState) build(base func(leaf int) *relation.Relation) error {
	// A host is the processes of one operator whose processors share a slot.
	// In a partial run every process is a host of its own — the transport's
	// streams, credit windows and end-of-stream marks are per process — and
	// one whose processor is placed on another node exists only as a routing
	// target: it is never launched and owns no inbox. A process receives one
	// end-of-stream mark per producer host on a redistributed port (producers
	// precede consumers in plan order, so their hosts are known), and the
	// inbox holds ChannelDepth batches per mark its host's processes wait
	// for: per incoming stream as the transport carries it.
	bySlot := make([]*host, r.procs.Size())
	for i, n := range r.wiring.Nodes {
		os := &opState{Node: n, procs: make([]proc, len(n.Op.Procs))}
		r.ops[i] = os
		clear(bySlot)
		for idx, procID := range n.Op.Procs {
			s := r.slotOf(n, procID)
			h := bySlot[s]
			if h == nil || r.partial != nil {
				h = &host{r: r, op: os, slot: &r.procs.slots[s], local: r.partial == nil || r.partial.Local(procID)}
				bySlot[s] = h
				os.hosts = append(os.hosts, h)
			}
			os.procs[idx].pos = len(h.procs)
			os.procs[idx].host = h
			h.procs = append(h.procs, idx)
		}
		// What every process of the operator waits for.
		var join operator.Join
		join.Init(n, r.cfg.BatchTuples)
		for _, from := range n.In {
			if from != nil && !from.Out.Local {
				join.Expect(from.Out.Port, len(r.ops[from.Index].hosts))
			}
		}
		joins := n.Op.Kind == xra.OpSimpleJoin || n.Op.Kind == xra.OpPipeJoin
		if joins && r.spill == nil && r.results == nil {
			// Twice a transport batch: a probe yields about one match per
			// row on the chain queries.
			r.results = r.transportPool(2 * r.cfg.BatchTuples)
		}
		for _, h := range os.hosts {
			if !h.local {
				continue
			}
			os.locals++
			h.inbox = make(chan operator.Msg, max(1, r.cfg.ChannelDepth*join.Marks()*len(h.procs)))
			for _, idx := range h.procs {
				os.procs[idx].join = join
			}
		}
	}
	// Base relation fragments: ideal initial fragmentation, identical to the
	// simulator, are read from the placement per run (arm); the shell needs
	// only the cardinalities they are estimated from. A partial run receives
	// its fragments pre-placed by the coordinator (Partial.ScanFragment)
	// instead of fragmenting in-process.
	if r.partial == nil {
		if err := r.wiring.PlaceWith(base, func(*relation.Relation, relation.Attr, int) []relation.Batch { return nil }); err != nil {
			return err
		}
	} else {
		if r.partial.LeafCard == nil {
			return fmt.Errorf("Partial needs LeafCard")
		}
		r.wiring.Estimate(r.partial.LeafCard)
		for _, os := range r.ops {
			if os.Op.Kind != xra.OpScan || os.locals == 0 {
				continue
			}
			if r.partial.ScanFragment == nil {
				return fmt.Errorf("Partial needs ScanFragment (local scan %s)", os.Op.ID)
			}
			os.Frags = make([]relation.Batch, len(os.procs))
			for i := range os.procs {
				if os.procs[i].host.local {
					os.Frags[i] = r.partial.ScanFragment(os.Op.ID, i)
				}
			}
		}
	}
	depth := r.cfg.ChannelDepth
	for _, os := range r.ops {
		e := os.Out
		if e == nil {
			continue
		}
		// Size the producer's transport batches from the cardinality it is
		// estimated to send into each pending buffer (Node.BufferSize), and
		// start the buffers at that size, so they never grow. A redistribution
		// edge keeps one per producer host and consumer process (a local edge
		// one per process); with as many slots as plan processors that is every
		// one of the edge's n×m streams, and with the single global batch size a
		// stream-heavy RD plan would pin far more batch memory than tuples it
		// ever moves. A buffer expected to carry a few dozen tuples gets a
		// correspondingly small pooled batch instead; batches of different
		// capacities live in per-size pools (putBatch routes returns by
		// capacity, since a pool silently drops — and an accounted pool never
		// un-meters — foreign-capacity batches). Partial (distributed) runs keep
		// the uniform size: the transport owns the pool and peer nodes must
		// agree on wire batch capacity.
		os.size = r.cfg.BatchTuples
		if r.partial == nil {
			os.size = os.BufferSize(len(os.hosts), os.size)
			if os.Op.Kind == xra.OpScan && r.resident == nil {
				os.rel = base(os.Op.Leaf) // a partial run's fragments come from the coordinator
			}
		}
		pool := r.transportPool(os.size)
		// Point every local host's outbox at the inboxes of its consumers'
		// hosts: one destination per consumer process, or on a local edge one
		// per hosted process, the consumer process of its own index. A stream
		// crossing the node boundary goes to the transport instead: a channel
		// of its own toward a remote consumer, the local consumer's inbox
		// from a remote producer. Stream ids come from the canonical
		// enumeration (a partial run's hosts are single processes), so they
		// can never drift from the peers'.
		to := r.ops[e.To.Index]
		for _, h := range os.hosts {
			dests := e.Dests()
			if e.Local {
				dests = len(h.procs)
			}
			if h.local {
				h.chans = operator.Chans{Dst: make([]chan<- operator.Msg, dests), Pool: pool}
				if r.resident != nil && os.Op.Kind == xra.OpScan {
					// Inject stands in for the scan's one host: it routes
					// every tuple to its consumer process by hash.
					h.out = operator.NewSourceOutbox(os.Node, pool, os.size, &h.chans)
					r.resident.sources[os.Op.Leaf] = h.out
				} else {
					h.out = operator.NewHostOutbox(os.Node, h.procs, pool, os.size, &h.chans)
				}
			}
			for d := 0; d < dests; d++ {
				target := d
				if e.Local {
					target = h.procs[d]
				}
				dest := to.procs[target].host
				switch {
				case h.local && dest.local:
					h.chans.Dst[d] = dest.inbox
				case h.local:
					out := make(chan operator.Msg, depth) // the stream's share of the remote inbox
					h.chans.Dst[d] = out
					r.partial.Egress(e.Stream(h.procs[0], d), out)
				case dest.local:
					r.partial.Ingress(e.Stream(h.procs[0], d), operator.Msg{Port: e.Port, Sign: operator.Insert, To: int32(target)}, dest.inbox)
				}
			}
		}
	}
	return nil
}

// arm readies the shell for one run under ctx: the run's context, the
// operators' dependency counts and one-shot start signals, the scans'
// fragments and lent views — read from Config.Placement — and each host's
// input count and transport counters. A resident network's scans are never
// launched and place nothing.
func (r *runtimeState) arm(ctx context.Context) {
	r.ctx, r.cancel = context.WithCancelCause(ctx)
	r.resultTuples, r.goroutines = 0, 0
	for _, os := range r.ops {
		os.ready = nil // only a host with After dependencies waits on it
		if len(os.After) > 0 {
			os.ready = make(chan struct{})
		}
		os.pending.Store(int32(len(os.After)))
		os.remaining.Store(int32(os.locals))
		r.goroutines += os.locals
		if os.rel != nil {
			os.Frags = r.cfg.Placement.Fragments(os.rel, os.Op.FragAttr, len(os.procs))
		}
		if os.Op.Kind == xra.OpScan && os.Out.Local && r.resident == nil {
			os.views = r.cfg.Placement.Lend(os.rel, os.Op.FragAttr, os.Frags, os.size)
		}
		for _, h := range os.hosts {
			// Every hosted process waits for marks unless the operator has no
			// input; a host on another node (a partial run's) has no join set
			// up, waits for nothing and is never launched.
			h.open = len(h.procs) * min(os.procs[h.procs[0]].join.Marks(), 1)
			h.chans.Done = r.ctx.Done()
			if h.out != nil {
				h.out.MovedRemote, h.out.MovedLocal, h.out.Batches = 0, 0, 0
			}
		}
	}
	for _, os := range r.ops {
		if os.locals == 0 {
			// No process of this operator runs here; its completion is
			// another node's business, so local After dependencies on it
			// count it complete at once (cross-node After ordering is
			// node-local — see internal/dist).
			r.complete(os)
		}
	}
}

// complete counts os complete for each operator that runs After it, and
// closes the ready signal of every one whose last dependency that was.
func (r *runtimeState) complete(os *opState) {
	for _, d := range os.Dependents {
		if dep := r.ops[d.Index]; dep.pending.Add(-1) == 0 {
			close(dep.ready)
		}
	}
}

// keep leaves the shell of a completed run idle on its ProcPool, its hosts
// parked. The bound counts plans as well as shells, so that the plans whose
// shells were all taken stay bounded too; evicting the idle shells stops
// their hosts.
func (r *runtimeState) keep() {
	p, key := r.procs, shellKey{r.wiring.Plan, r.cfg}
	p.mu.Lock()
	defer p.mu.Unlock()
	if max(p.idle, len(p.shells)) >= maxIdleShells {
		p.dropIdle()
	}
	p.shells[key] = append(p.shells[key], r)
	p.idle, p.parked = p.idle+1, p.parked+r.goroutines
}

// slotOf returns the slot of the host that runs process procID of n.
func (r *runtimeState) slotOf(n *operator.Node, procID int) int {
	if r.resident != nil && n.Op.Kind == xra.OpScan {
		return 0 // a resident scan is one source, never launched (Resident.Inject)
	}
	return r.procs.index(procID)
}

// transportPool returns the run's pool of batches with capacity bt, on
// first use creating it: accounted against the run's meter when it has one,
// the engine session's resident pool of that capacity under Config.Pool,
// otherwise a pool that lives as long as the run. Only called while the
// shell is built.
func (r *runtimeState) transportPool(bt int) *relation.BatchPool {
	p := r.pools[bt]
	switch {
	case p != nil:
		return p
	case r.cfg.Meter != nil:
		p = relation.NewBatchPoolAccounted(bt, r.retain, r.cfg.Meter.Add)
	case r.cfg.Pool != nil:
		p = r.cfg.Pool.batchPool(bt)
	default:
		p = relation.NewBatchPool(bt, r.retain)
	}
	r.pools[bt] = p
	return p
}

// putBatch returns a consumed transport batch to the pool it came from,
// routing by capacity: with per-stream batch sizing a consumer receives
// batches from differently-sized producer pools, and handing a batch to the
// wrong pool would silently drop it — never reversing an accounted pool's
// meter charge until Settle.
func (r *runtimeState) putBatch(b *relation.Batch) {
	if p := r.pools[b.Cap()]; p != nil {
		p.Put(b)
	}
}

// launch starts the workers. Every channel operation that waits selects on
// ctx.Done() so cancellation unwinds the whole goroutine tree. A host of a
// shell that may be kept runs on one goroutine for the shell's life: the
// first run starts it, and every later run wakes it where it parked.
func (r *runtimeState) launch() {
	r.wg.Add(r.goroutines)
	keepable := r.cfg.Pool != nil && r.cfg.Meter == nil && r.partial == nil
	for _, os := range r.ops {
		for _, h := range os.hosts {
			switch {
			case !h.local:
			case h.wake != nil:
				h.wake <- true
			case keepable:
				h.wake = make(chan bool, 1)
				r.procs.hosts.Add(1)
				go h.park(h.wake)
			default:
				go h.run()
			}
		}
	}
}

// stop ends the parked hosts of a shell that will not run again. It does not
// wait for them: a host returns as soon as it takes the signal, and touches
// nothing of the shell on its way out; ProcPool.Close waits for them all.
func (r *runtimeState) stop() {
	for _, os := range r.ops {
		for _, h := range os.hosts {
			if h.wake != nil {
				h.wake <- false
				h.wake = nil
			}
		}
	}
}

// finish assembles the run result after every host finished its run and
// drops the fragments and views the run read. A run whose hosts park — an
// in-memory run on a ProcPool (launch) — then leaves its shell, its
// processes reset by their hosts (host.run), to the pool (keep), unless a
// message is left in an inbox: then the shell is dropped and its hosts
// stopped.
func (r *runtimeState) finish() *RunResult {
	idle := true
	res := &RunResult{Stats: Stats{
		Counters: operator.Counters{
			Processes:    r.wiring.Plan.NumProcesses(),
			Streams:      r.streams,
			ResultTuples: r.resultTuples,
		},
		Goroutines: r.goroutines,
		MaxProcs:   r.cfg.MaxProcs,
		OpDone:     make(map[string]time.Duration, len(r.ops)),
	}}
	for _, os := range r.ops {
		res.Stats.OpDone[os.Op.ID] = os.wallDone
		if os.Op.Kind != xra.OpCollect && os.wallDone > res.WallTime {
			res.WallTime = os.wallDone
		}
		for _, h := range os.hosts {
			res.Stats.AddTransport(h.out)
			idle = idle && h.wake != nil && len(h.inbox) == 0
		}
		os.Frags, os.views = nil, nil
	}
	if m := r.cfg.Meter; m != nil {
		res.Stats.BytesSpilled = m.SpilledBytes()
		res.Stats.SpillPartitions = m.Partitions()
		res.Stats.SpillTime = m.IOTime()
	}
	if idle {
		r.keep()
	} else {
		r.stop()
	}
	return res
}
