package operator

import (
	"context"
	"time"

	"multijoin/internal/relation"
)

// Port identifies one logical input of an operator.
type Port int8

const (
	Build Port = iota
	Probe
	In // the collect operator's single input
	numPorts
)

// Signs of a Msg's tuples, and the outbox lanes in delivery order.
const (
	Insert int8 = +1
	Delete int8 = -1
)

// Msg is the one message type of every driver: a signed batch of tuples
// for one input port or, when Batch is nil, that port's punctuation mark
// (end-of-stream of a query, end-of-round token of a view).
type Msg struct {
	Batch *relation.Batch
	Port  Port
	Sign  int8
	// Remote reports that producer and consumer process are bound to
	// different processors (the tuples crossed the network). Only the outbox
	// of a single process addressing processes sets it — a host outbox's
	// buffer mixes processes on different processors — and only the
	// simulator reads it, to charge network latency and receive cost; the
	// transport counters are taken at Emit instead.
	Remote bool
}

// Send delivers m into inbox. It tries the plain send first, so the common
// delivery into an inbox with room never touches done — the one channel
// every process of a run shares — and selects only when it has to wait.
// When done closes during that wait it returns m's batch to pool and
// reports false: a delivery that loses the race with cancellation never
// strands an accounted batch.
func Send(inbox chan<- Msg, m Msg, done <-chan struct{}, pool *relation.BatchPool) bool {
	select {
	case inbox <- m:
		return true
	default:
	}
	select {
	case inbox <- m:
		return true
	case <-done:
		pool.Put(m.Batch)
		return false
	}
}

// Chans is the Deliverer of the goroutine drivers: destination d of the
// outbox is the inbox channel Dst[d], its consumer host's.
type Chans struct {
	Dst  []chan<- Msg
	Done <-chan struct{}
	Pool *relation.BatchPool // where an undeliverable batch goes back to
}

func (c *Chans) Deliver(d int, m Msg) bool { return Send(c.Dst[d], m, c.Done, c.Pool) }

// Sink consumes the final result stream of one run. The runtime transfers
// batch ownership with every Push: release (which may be nil) returns the
// batch to its pool and must be called exactly once, when the consumer has
// finished with the tuples. Push blocks until the consumer accepts the
// batch — streaming backpressure, which pauses the simulator's virtual
// clock and propagates upstream through a goroutine runtime's inboxes — or
// ctx is cancelled, in which case it returns the context's error and the
// runtime keeps ownership of the batch. A runtime pushes from a single
// goroutine; implementations need not be concurrency-safe.
type Sink interface {
	Push(ctx context.Context, batch *relation.Batch, release func()) error
}

// Gather is the Sink that materializes a result stream into Rel.
type Gather struct{ Rel *relation.Relation }

func (g *Gather) Push(_ context.Context, batch *relation.Batch, release func()) error {
	batch.AppendTo(g.Rel)
	if release != nil {
		release()
	}
	return nil
}

// Counters are the structural quantities every runtime reports for a run.
// Apart from Batches they are properties of the plan and the data, not of
// scheduling: all runtimes report the same values for the same plan.
type Counters struct {
	// Processes is the number of operation processes the plan used
	// (operators weighted by their degree of parallelism).
	Processes int
	// Streams is the number of tuple streams opened (n×m per
	// redistribution edge, n per local edge).
	Streams int
	// TuplesMovedRemote counts tuples that crossed processor boundaries.
	TuplesMovedRemote int64
	// TuplesLocal counts tuples delivered processor-locally.
	TuplesLocal int64
	// Batches counts delivered data batches, and unlike its neighbours it is
	// a property of the transport, not of the plan: the processes a driver
	// runs as one (the goroutine runtime's hosts) fill one buffer per
	// consumer host between them, so the same tuples travel in fewer, fuller
	// batches the fewer processor slots the run has. With one outbox per
	// process — the simulator, or as many slots as plan processors — it is
	// the same for every runtime. The final gather at
	// the collect operator is identical for every strategy and excluded from
	// the three transport counters.
	Batches int64
	// ResultTuples is the cardinality of the final result.
	ResultTuples int
}

// AddTransport adds the transport counters of one outbox (nil for the
// collect process, which has none).
func (c *Counters) AddTransport(o *Outbox) {
	if o != nil {
		c.TuplesMovedRemote += o.MovedRemote
		c.TuplesLocal += o.MovedLocal
		c.Batches += o.Batches
	}
}

// Stats is the unified counter set of one run, declared once for every
// runtime: the simulator (virtual time as time.Durations of the same
// magnitude), the goroutine and the multi-process runtimes each fill it
// themselves, and an Engine session adds the admission fields when the run
// ends. Quantities that only one
// backend can measure are documented as such and are zero on the others;
// everything structural (processes, streams, tuple movement) is
// runtime-independent by construction — all backends interpret the same
// plan — and is filled by every runtime.
type Stats struct {
	// Counters are the structural quantities of the plan and its data:
	// Processes, Streams, TuplesMovedRemote, TuplesLocal, Batches and
	// ResultTuples.
	Counters
	// OpDone maps operator ids to their completion offset from query
	// start (virtual time on the simulator, wall time on real runtimes).
	OpDone map[string]time.Duration
	// QueueWait is how long the query waited in an Engine's admission
	// queue before it began executing (zero outside an Engine session or
	// when a slot was free immediately).
	QueueWait time.Duration
	// PlanCacheHit reports whether the query's plan was served from the
	// Engine's plan cache instead of being planned from scratch (always
	// false outside an Engine session).
	PlanCacheHit bool
	// EstimatedCost is the admission policy's predicted wall time for the
	// query — calibrated via WithCalibration, otherwise on an assumed
	// per-unit cost (zero outside an Engine session).
	EstimatedCost time.Duration
	// MemReserved is the peak-memory reservation the cost admission policy
	// held for the query on the shared budget, in bytes (zero under the
	// fifo policy, for non-spill queries, and for grace-mode admissions of
	// queries too large to ever fit).
	MemReserved int64

	// Simulator-only counters (zero on wall-clock runtimes).

	// StartupTime is the total serial scheduler time spent initializing
	// operation processes.
	StartupTime time.Duration
	// HandshakeTime is the total processor time spent on stream
	// handshakes.
	HandshakeTime time.Duration
	// SimEvents is the number of simulation events processed.
	SimEvents uint64
	// PeakTableTuplesPerProc is the per-processor peak of hash-table
	// resident tuples (the Section 5 memory observation).
	PeakTableTuplesPerProc int
	// PeakTableTuplesTotal is the machine-wide peak of hash-table
	// resident tuples.
	PeakTableTuplesTotal int

	// Wall-clock-runtime-only counters (zero on the simulator).

	// Goroutines is the number of worker goroutines the run used: one per
	// host — per operator and slot its processes use, so per operation
	// process when the run has as many slots as the plan has processors —
	// whether the run started it or woke it where a kept shell's host
	// parked. It has no per-stream and no per-dependency term (the host that
	// completes an operator counts it complete for its dependents). The dist
	// runtime sums it, with each node's transport goroutines, over its
	// nodes.
	Goroutines int
	// MaxProcs is the number of modeled processors (slots), the cap on
	// concurrent computation; zero on the dist runtime, where every worker
	// process schedules its own.
	MaxProcs int

	// Spill-runtime-only counters (zero on the in-memory runtimes).

	// BytesSpilled is the total bytes of operand tuples serialized to
	// temp-file spill partitions.
	BytesSpilled int64
	// SpillPartitions is the number of spill-partition files created.
	SpillPartitions int
	// SpillTime is the total wall time spent on spill-file I/O (writes
	// plus partition re-reads).
	SpillTime time.Duration

	// Dist-runtime-only counters (zero on single-process runtimes).

	// BytesOnWire is the total frame bytes written on inter-node TCP data
	// connections, summed over the coordinator and every worker process.
	BytesOnWire int64
	// Workers is the number of worker processes the run spawned.
	Workers int
}
