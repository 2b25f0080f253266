// Package parallel executes xra plans with real goroutine concurrency — the
// wall-clock counterpart of the discrete-event simulator in package engine.
//
// The simulator reproduces the paper's *structural* cost effects on a
// virtual clock; this package runs the very same plans on the host machine
// so that the FP-vs-RD pipelining tradeoffs can be measured on real cores.
// The operation-process model — ports, punctuation, the join step, the
// outbox and who owns a batch when — is package operator's; this package is
// its goroutine driver:
//
//   - every operation process of the plan (one operator replica per
//     processor in Op.Procs) becomes one worker goroutine with one inbox, a
//     channel of operator.Msg. A producer's outbox sends a full batch
//     straight into the consumer process's inbox, and a stream ends with
//     one end-of-stream message; the n×m streams of a redistribution edge
//     exist as routing decisions and end-of-stream counts, not as channels
//     or goroutines of their own;
//   - the plan's processors are modeled by per-processor run queues: one
//     dispatcher goroutine per modeled processor executes the operator work
//     of every process bound (by plan processor id, modulo MaxProcs) to it,
//     serializing a processor's operation processes exactly like the
//     paper's shared-nothing nodes. Inbox sends and receives never run on a
//     dispatcher (blocked processes occupy no processor, as on a real
//     machine);
//   - Op.After start dependencies are honored without deadlock: a process
//     whose dependencies are pending keeps draining its inbox into an
//     unbounded stash (the simulator's "input arriving earlier is
//     buffered") and processes it once the dependencies complete;
//   - with a memory budget, join processes run Grace-style partitioned
//     joins (hashjoin.Grace) on their own goroutine instead of the kernel's
//     in-memory join step.
//
// The hot data path is allocation-free in steady state: tuple batches come
// from a relation.BatchPool and are returned by the consumer that exhausts
// them, and join results are built in per-process scratch buffers. Result
// equivalence against the sequential reference is asserted for every
// strategy in the tests.
package parallel

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/hashjoin"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// HostCap returns procs bounded by the host's GOMAXPROCS: the MaxProcs to
// use when a plan targets more processors than the machine has cores.
// Plans must keep their full processor count (RD and FP need one processor
// per concurrently executing join); only the dispatcher count is capped.
func HostCap(procs int) int {
	if n := runtime.GOMAXPROCS(0); procs > n {
		return n
	}
	return procs
}

// Sink consumes the final result stream of one run; Push backpressure
// propagates upstream through the plan's inboxes.
type Sink = operator.Sink

// sharedQueueDepth is the buffered capacity of each shared run queue. A
// worker has at most one task outstanding, so queued tasks never exceed the
// live worker count; the buffer only smooths bursts — a full queue simply
// blocks the producing worker (which selects on its run's cancellation).
const sharedQueueDepth = 256

// ProcPool is a shared set of modeled processors: one run-queue dispatcher
// goroutine each, serving the operation processes of *every* run configured
// with the pool (Config.Pool). It is the session-level resource that caps
// concurrent computation across in-flight queries — the engine's
// counterpart of a per-run dispatcher set. Close stops the dispatchers; it
// must not be called while runs still use the pool.
type ProcPool struct {
	queues []chan task
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewProcPool starts a pool of n modeled processors (n < 1 means
// GOMAXPROCS). Plan processor id p is served by dispatcher p mod n.
func NewProcPool(n int) *ProcPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &ProcPool{queues: make([]chan task, n), stop: make(chan struct{})}
	for i := range p.queues {
		q := make(chan task, sharedQueueDepth)
		p.queues[i] = q
		p.wg.Add(1)
		go p.dispatch(q)
	}
	return p
}

// Size returns the number of modeled processors (dispatchers).
func (p *ProcPool) Size() int { return len(p.queues) }

// Close stops every dispatcher and waits for them to exit. Tasks of
// cancelled runs that are still queued are drained (their workers have
// already unwound; completing the task is harmless and never blocks).
func (p *ProcPool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// dispatch is one shared modeled processor. Unlike a per-run dispatcher it
// must not exit on any single run's cancellation: a cancelled run's workers
// unwind on their own, and a stale queued task is completed harmlessly (the
// taskDone send is buffered for the one task its worker had outstanding).
func (p *ProcPool) dispatch(q chan task) {
	defer p.wg.Done()
	for {
		select {
		case t := <-q:
			t.run()
		case <-p.stop:
			return
		}
	}
}

// Config parameterizes one parallel execution.
type Config struct {
	// MaxProcs is the number of modeled processors: one run-queue
	// dispatcher goroutine each. Plan processor id p maps to dispatcher
	// p mod MaxProcs, so at most MaxProcs operation processes compute at
	// any instant and processes sharing a plan processor are serialized on
	// the same dispatcher. Zero means the plan's own processor count
	// (MaxProc+1), i.e. the machine the plan was generated for.
	MaxProcs int
	// BatchTuples is the number of tuples per transport batch (the
	// pipelining granularity and the batch-pool capacity). Zero means
	// DefaultBatchTuples.
	BatchTuples int
	// ChannelDepth is the buffer capacity, in batches, each incoming tuple
	// stream contributes to its consumer's inbox: a process's inbox holds
	// ChannelDepth × its incoming stream count batches, so every producer
	// can run a few batches ahead of a consumer that has not been scheduled
	// yet. It is resolved once per run, not per edge, and is also the
	// credit window of each node-crossing stream in the distributed runtime.
	// Zero means DefaultChannelDepth.
	ChannelDepth int
	// MemoryBudget, when positive, switches the run to out-of-core mode
	// (the "spill" runtime): live pooled batches and buffered join
	// operands are accounted against the budget in bytes, join processes
	// use Grace-style partitioned joins (hashjoin.Grace), and operand
	// tuples overflowing the budget are serialized to temp-file partitions
	// that are re-read partition-at-a-time once both operands ended. Zero
	// keeps the in-memory pipelining execution.
	//
	// Out-of-core mode trades the paper's pipelining for the memory
	// bound: every join materializes (partitioned, possibly on disk)
	// before producing output, and join work runs on the worker goroutine
	// rather than the processor dispatcher, since it may block on file
	// I/O. The result multiset is identical to the in-memory runtimes.
	//
	// The budget bounds the partitioning phase (buffered operands plus
	// pooled batches in flight); the drain phase additionally meters the
	// one hash table it rebuilds at a time (its residency stays bounded
	// structurally at ~1/hashjoin.GraceFanout of one operand per process,
	// but the reservation is visible, so concurrent runs on a shared meter
	// spill in response).
	MemoryBudget int64

	// Pool, when set, executes this run's operator work on a shared,
	// long-lived ProcPool instead of launching per-run dispatchers — the
	// engine session mode, where one set of modeled processors caps
	// concurrent computation across every in-flight query. MaxProcs is
	// ignored; the pool's size takes its place.
	Pool *ProcPool

	// Meter, when set, accounts this run against a shared memory budget
	// (an engine session's spill.Meter child) instead of a private
	// NewMeter(MemoryBudget). It implies out-of-core mode like a positive
	// MemoryBudget, whose value is then ignored: the shared meter carries
	// its own budget. The caller owns the meter's lifecycle (Settle).
	Meter *spill.Meter

	// Partial, when set, executes only the operation processes placed on
	// this node and hands node-crossing streams to the configured transport
	// (the distributed runtime's reuse seam — see Partial). Incompatible
	// with Pool and with out-of-core mode (MemoryBudget/Meter).
	Partial *Partial
}

// Defaults for Config zero values.
//
// DefaultBatchTuples is the transport vector size of the goroutine
// runtimes, deliberately larger than the simulator's cost-model granularity
// (costmodel.Params.BatchTuples): every batch send costs an inbox
// operation and a run-queue handshake, so with columnar batches
// the per-batch overhead amortizes over 4x more tuples while a batch still
// stays a few KB of cache-warm columns.
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
		if c.MemoryBudget > 0 || c.Meter != nil {
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

// Stats aggregates the structural counters of one parallel run, mirroring
// engine.Stats where the quantity is meaningful on a real machine.
type Stats struct {
	operator.Counters
	// Goroutines is the total number of goroutines launched: one worker
	// per operation process, one dependency waiter per operator with After
	// dependencies, and one dispatcher per modeled processor (none when the
	// run uses a shared ProcPool). It has no per-stream term.
	Goroutines int
	// MaxProcs is the number of modeled processors (run-queue
	// dispatchers).
	MaxProcs int
	// OpWall maps operator ids to their wall-clock completion offset from
	// query start.
	OpWall map[string]time.Duration

	// Out-of-core counters (zero unless Config.MemoryBudget was set).

	// BytesSpilled is the total bytes written to spill-partition files.
	BytesSpilled int64
	// SpillPartitions is the number of spill-partition files created.
	SpillPartitions int
	// SpillTime is the total wall time spent on spill-file I/O.
	SpillTime time.Duration
}

// RunResult is the outcome of one parallel execution.
type RunResult struct {
	// WallTime is the elapsed real time from launch to the completion of
	// the last operation process.
	WallTime time.Duration
	// Stats holds structural counters.
	Stats Stats
}

// task is one unit of operator work on a run queue: the process requesting
// computation and the input message to apply.
type task struct {
	w *inst
	m operator.Msg
}

// run executes on a dispatcher: it applies the message to the process's
// join step and hands the process back to its worker. taskDone is buffered
// for the one task a worker can have outstanding, so the send never blocks
// — not even for a stale task of a cancelled run whose worker has unwound.
func (t task) run() {
	t.w.result = t.w.join.Apply(t.m)
	t.w.taskDone <- struct{}{}
}

// opState is the shared runtime state of one plan operator.
type opState struct {
	*operator.Node
	instances []*inst
	// locals is the number of instances placed on this node (all of them
	// unless the run is partial).
	locals int

	// emitTuples and emitPool are the operator's transport batch size and
	// its matching pool, chosen in setup from the estimated per-stream
	// cardinality (the run default when a stream is expected to fill it).
	emitTuples int
	emitPool   *relation.BatchPool

	ready     chan struct{} // closed when all After dependencies completed
	done      chan struct{} // closed when all instances finished
	remaining atomic.Int32
	wallDone  time.Duration // written by the closing instance before close(done)
}

// spillState carries the out-of-core machinery of one budgeted run: the
// memory meter, the per-run temp directory every partition file lives in,
// and the Grace joins to close during cleanup.
type spillState struct {
	meter  *spill.Meter
	dir    string
	graces []*hashjoin.Grace
}

// cleanup closes every Grace join (releasing file descriptors and meter
// reservations) and removes the run's temp directory wholesale. It must run
// after every goroutine of the run has exited.
func (s *spillState) cleanup() {
	for _, g := range s.graces {
		g.Close()
	}
	os.RemoveAll(s.dir)
}

// runtimeState carries one execution.
type runtimeState struct {
	wiring  *operator.Wiring
	cfg     Config
	ctx     context.Context
	pool    *relation.BatchPool
	retain  int                         // per-pool free-list bound
	pools   map[int]*relation.BatchPool // batch capacity → pool; nil until a sized pool exists
	ops     []*opState                  // plan order, indexed by Node.Index
	spill   *spillState                 // nil unless the run is budgeted (MemoryBudget/Meter)
	partial *Partial                    // nil for whole-plan (single-node) runs

	// sink receives the final result stream from the collect process (nil
	// only on nodes of a partial run that do not host it); resultTuples
	// counts what was pushed.
	sink         Sink
	resultTuples int

	// failOnce/failErr record the first internal failure (spill I/O); the
	// recording goroutine cancels the run context so every other goroutine
	// unwinds as if the caller had cancelled.
	failOnce  sync.Once
	failErr   error
	cancelRun context.CancelFunc

	// queues are the per-processor run queues, one dispatcher goroutine
	// each; plan processor id p is served by queues[p mod len(queues)].
	queues    []chan task
	queueStop chan struct{} // closed when all workers finished
	dwg       sync.WaitGroup

	start      time.Time
	wg         sync.WaitGroup
	goroutines int
}

// RunStream executes the plan: the collect process pushes each pooled
// result batch into sink (transferring ownership; the consumer's release
// returns it to the run's pool), Push backpressure propagates upstream
// through the plan's inboxes, and every worker, dispatcher and dependency
// waiter selects on ctx.Done() at each blocking point, so cancelling ctx
// tears the whole process tree down — no goroutine outlives the call — and
// the context's error is returned. sink may be nil only in a partial run
// that does not host the collect process.
func RunStream(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config, sink Sink) (*RunResult, error) {
	w, err := operator.Wire(plan)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
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
		if cfg.Pool != nil || cfg.MemoryBudget > 0 || cfg.Meter != nil {
			return nil, fmt.Errorf("parallel: Partial is incompatible with Pool and out-of-core mode")
		}
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	r := &runtimeState{
		wiring:    w,
		cfg:       cfg.withDefaults(plan),
		ctx:       runCtx,
		cancelRun: cancelRun,
		sink:      sink,
		partial:   cfg.Partial,
		ops:       make([]*opState, len(w.Nodes)),
	}
	streams := plan.NumStreams()
	r.retain = min(streams*(r.cfg.ChannelDepth+1), relation.MaxPoolRetain)
	if r.cfg.MemoryBudget > 0 || r.cfg.Meter != nil {
		dir, err := os.MkdirTemp("", "mjspill-")
		if err != nil {
			return nil, fmt.Errorf("parallel: spill dir: %w", err)
		}
		meter := r.cfg.Meter
		if meter == nil {
			meter = spill.NewMeter(r.cfg.MemoryBudget)
		}
		r.spill = &spillState{meter: meter, dir: dir}
		r.pool = relation.NewBatchPoolAccounted(r.cfg.BatchTuples, r.retain, meter.Add)
	} else if r.partial != nil && r.partial.BatchPool != nil {
		r.pool = r.partial.BatchPool
	} else {
		r.pool = relation.NewBatchPool(r.cfg.BatchTuples, r.retain)
	}
	if err := r.setup(base); err != nil {
		if r.spill != nil {
			r.spill.cleanup()
		}
		return nil, fmt.Errorf("parallel: %w", err)
	}
	r.start = time.Now()
	r.launch()
	r.wg.Wait()
	if r.cfg.Pool == nil {
		close(r.queueStop)
		r.dwg.Wait()
	}
	if r.spill != nil {
		r.spill.cleanup()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if r.failErr != nil {
		return nil, fmt.Errorf("parallel: %w", r.failErr)
	}
	return r.finish(streams), nil
}

// fail records the first internal failure and cancels the run so every
// goroutine unwinds; RunStream returns the recorded error.
func (r *runtimeState) fail(err error) {
	r.failOnce.Do(func() {
		r.failErr = err
		r.cancelRun()
	})
}

// setup builds operator and process state, one run queue per modeled
// processor and one inbox per local process, pre-places base relation
// fragments and points every outbox at its consumers' inboxes.
func (r *runtimeState) setup(base func(leaf int) *relation.Relation) error {
	// Per-processor run queues: plan processor id p maps to queue
	// p mod MaxProcs. A shared pool (engine session) brings its own queues
	// and long-lived dispatchers; otherwise the run creates private queues,
	// buffered for every process so a send can only block while the queue
	// is genuinely backed up.
	if r.cfg.Pool != nil {
		r.queues = r.cfg.Pool.queues
	} else {
		r.queues = make([]chan task, r.cfg.MaxProcs)
		for i := range r.queues {
			r.queues[i] = make(chan task, r.wiring.Plan.NumProcesses()+1)
		}
		r.queueStop = make(chan struct{})
	}
	// Create one process (worker) per operator replica, bound to its
	// processor's run queue. In a partial run, instances whose processor is
	// placed on another node exist only as routing targets: they are never
	// launched and own no inbox. The inbox holds ChannelDepth batches per
	// incoming stream. In out-of-core mode every join process gets a Grace
	// join up front (single-threaded here, so registration for cleanup
	// needs no lock).
	for i, n := range r.wiring.Nodes {
		os := &opState{Node: n, ready: make(chan struct{}), done: make(chan struct{}),
			emitTuples: r.cfg.BatchTuples, emitPool: r.pool}
		r.ops[i] = os
		for idx, procID := range n.Op.Procs {
			w := &inst{
				r:        r,
				op:       os,
				idx:      idx,
				local:    r.partial == nil || r.partial.Local(procID),
				queue:    r.queues[queueIndex(procID, len(r.queues))],
				taskDone: make(chan struct{}, 1),
			}
			os.instances = append(os.instances, w)
			if !w.local {
				continue
			}
			os.locals++
			w.join.Init(n)
			w.inbox = make(chan operator.Msg, max(1, r.cfg.ChannelDepth*n.InStreams()))
			if r.spill != nil && (n.Op.Kind == xra.OpSimpleJoin || n.Op.Kind == xra.OpPipeJoin) {
				spec := hashjoin.Spec{BuildIsLower: n.Op.BuildIsLower}
				w.grace = hashjoin.NewGrace(spec, r.spill.meter, r.spill.dir, r.pool)
				r.spill.graces = append(r.spill.graces, w.grace)
			}
		}
		os.remaining.Store(int32(os.locals))
		if os.locals == 0 {
			// No process of this operator runs here; its completion is
			// another node's business. Closing done up front keeps local
			// After dependencies on it from blocking (cross-node After
			// ordering is node-local — see internal/dist).
			close(os.done)
		} else if n.Op.Kind == xra.OpCollect && r.sink == nil {
			return fmt.Errorf("RunStream needs a sink")
		}
	}
	// Base relation fragments: ideal initial fragmentation, identical to the
	// simulator. A partial run receives its fragments pre-placed by the
	// coordinator (Partial.ScanFragment) instead of fragmenting in-process.
	if r.partial == nil {
		if err := r.wiring.Place(base); err != nil {
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
			os.Frags = make([]relation.Batch, len(os.instances))
			for i, w := range os.instances {
				if w.local {
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
		// Size the producer's transport batches from its estimated
		// per-stream cardinality. A redistribution edge opens producers ×
		// consumers streams and a pooled buffer sits on every one of them;
		// with the single global batch size a stream-heavy RD plan pins far
		// more batch memory than tuples it ever moves. A stream expected to
		// carry a few dozen tuples gets a correspondingly small pooled batch
		// instead; batches of different capacities live in per-size pools
		// (putBatch routes returns by capacity, since a pool silently drops
		// — and an accounted pool never un-meters — foreign-capacity
		// batches). Partial (distributed) runs keep the uniform size: the
		// transport owns the pool and peer nodes must agree on wire batch
		// capacity.
		if r.partial == nil {
			per := os.EstCard / (len(os.instances) * e.Dests())
			if bt := sizeTransportBatch(per, r.cfg.BatchTuples); bt != r.cfg.BatchTuples {
				os.emitTuples, os.emitPool = bt, r.transportPool(bt)
			}
		}
		// Point every local producer's outbox at its consumers' inboxes. A
		// stream crossing the node boundary goes to the transport instead:
		// a channel of its own toward a remote consumer, the local
		// consumer's inbox from a remote producer. Stream ids come from the
		// canonical enumeration, so they can never drift from the peers'.
		to := r.ops[e.To.Index]
		for i, w := range os.instances {
			if w.local {
				w.chans = operator.Chans{Dst: make([]chan<- operator.Msg, e.Dests()), Done: r.ctx.Done(), Pool: os.emitPool}
				w.out = operator.NewOutbox(os.Node, i, os.emitPool, os.emitTuples, &w.chans)
			}
			for d := 0; d < e.Dests(); d++ {
				dest := to.instances[e.Target(i, d)]
				switch {
				case w.local && dest.local:
					w.chans.Dst[d] = dest.inbox
				case w.local:
					out := make(chan operator.Msg, depth) // the stream's share of the remote inbox
					w.chans.Dst[d] = out
					r.partial.Egress(e.Stream(i, d), out)
				case dest.local:
					r.partial.Ingress(e.Stream(i, d), operator.Msg{Port: e.Port, Sign: operator.Insert, Remote: true}, dest.inbox)
				}
			}
		}
	}
	return nil
}

// minTransportTuples is the floor of the per-stream transport batch size:
// below a couple of cache lines per column the per-batch channel and
// run-queue overhead dominates any residency win.
const minTransportTuples = 16

// sizeTransportBatch picks a producer's transport batch capacity: the run's
// configured size when the stream is expected to fill it, otherwise the
// power-of-two ceiling of the expected per-stream tuple count (so pools stay
// few and batch capacities stay round), floored at minTransportTuples.
func sizeTransportBatch(expected, max int) int {
	if expected >= max {
		return max
	}
	bt := minTransportTuples
	for bt < expected {
		bt <<= 1
	}
	if bt > max {
		return max
	}
	return bt
}

// transportPool returns the run's batch pool for the given capacity,
// creating it on first use. Only called from the single-threaded setup;
// the pools map is read-only once workers launch.
func (r *runtimeState) transportPool(bt int) *relation.BatchPool {
	if r.pools == nil {
		r.pools = map[int]*relation.BatchPool{r.cfg.BatchTuples: r.pool}
	}
	if p, ok := r.pools[bt]; ok {
		return p
	}
	var p *relation.BatchPool
	if r.spill != nil {
		p = relation.NewBatchPoolAccounted(bt, r.retain, r.spill.meter.Add)
	} else {
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
	if r.pools != nil {
		if p, ok := r.pools[b.Cap()]; ok {
			p.Put(b)
			return
		}
	}
	r.pool.Put(b)
}

// queueIndex maps a plan processor id to its run queue. The scheduler
// host's pseudo id (xra.HostProc, negative) wraps around like any other.
func queueIndex(proc, n int) int {
	i := proc % n
	if i < 0 {
		i += n
	}
	return i
}

// launch starts dispatchers, dependency waiters and workers. Every blocking
// channel operation selects on ctx.Done() so cancellation unwinds the whole
// goroutine tree.
func (r *runtimeState) launch() {
	done := r.ctx.Done()
	if r.cfg.Pool == nil {
		for _, q := range r.queues {
			r.dwg.Add(1)
			r.goroutines++
			go r.dispatch(q)
		}
	}
	for _, os := range r.ops {
		if len(os.After) == 0 || os.locals == 0 {
			close(os.ready)
		} else {
			r.wg.Add(1)
			r.goroutines++
			go func() {
				defer r.wg.Done()
				for _, d := range os.After {
					select {
					case <-r.ops[d.Index].done:
					case <-done:
						return
					}
				}
				close(os.ready)
			}()
		}
		for _, w := range os.instances {
			if w.local {
				r.wg.Add(1)
				r.goroutines++
				go w.run()
			}
		}
	}
}

// dispatch is one modeled processor: it serializes the operator work of
// every process bound to its run queue. It exits when all workers finished
// (queueStop) or the run is cancelled.
func (r *runtimeState) dispatch(q chan task) {
	defer r.dwg.Done()
	done := r.ctx.Done()
	for {
		select {
		case t := <-q:
			t.run()
		case <-r.queueStop:
			return
		case <-done:
			return
		}
	}
}

// finish assembles the run result after every goroutine exited.
func (r *runtimeState) finish(streams int) *RunResult {
	res := &RunResult{Stats: Stats{
		Counters: operator.Counters{
			Processes:    r.wiring.Plan.NumProcesses(),
			Streams:      streams,
			ResultTuples: r.resultTuples,
		},
		Goroutines: r.goroutines,
		MaxProcs:   r.cfg.MaxProcs,
		OpWall:     make(map[string]time.Duration, len(r.ops)),
	}}
	for _, os := range r.ops {
		res.Stats.OpWall[os.Op.ID] = os.wallDone
		if os.Op.Kind != xra.OpCollect && os.wallDone > res.WallTime {
			res.WallTime = os.wallDone
		}
		for _, w := range os.instances {
			res.Stats.AddTransport(w.out)
		}
	}
	if r.spill != nil {
		res.Stats.BytesSpilled = r.spill.meter.SpilledBytes()
		res.Stats.SpillPartitions = r.spill.meter.Partitions()
		res.Stats.SpillTime = r.spill.meter.IOTime()
	}
	return res
}
