// Package engine executes xra plans on a simulated PRISMA/DB machine.
//
// The engine mirrors the PRISMA/DB query execution architecture (Section 2.2
// of the paper): a single per-query scheduler claims operation processes and
// initializes them sequentially (startup overhead); the processes then
// coordinate among themselves. Every operation process is bound to one
// simulated processor. Operand redistribution from n producer processes to m
// consumer processes opens n x m tuple streams, each requiring a handshake
// at both endpoints before transport (coordination overhead). Tuples travel
// in batches, and per-tuple costs follow the paper's unit model: hashing
// costs one unit, retrieving a tuple from the network one unit, creating and
// sending a result tuple two units (Section 4.3).
//
// The operation-process model itself — ports, punctuation, the join step,
// the outbox — is package operator's; this package drives it from the event
// heap and charges virtual time. Everything it schedules is one typed event
// (instance.go: a process, a message and one of four kinds — activate,
// started, deliver, work done) dispatched by the single fire function, so the
// cost of an event is what the event does, not a closure and two interface
// conversions around it. A run allocates what lives as long as it in few
// pieces: an operator's processes are one slab and their queues another,
// and the simulator comes from a pool that the previous run returned it to,
// with the heap and slots that run grew.
//
// The base relations are fragmented ideally (Section 4.1) before any query
// runs: a run reads its scans' fragments and their lent views from the
// database's placement (RunPlaced, relation.Placement) and places nothing
// itself; only RunStream, which has no placement, fragments per run.
//
// Real hash joins run inside the simulated operators — the stream pushed
// into the sink is the true join result and is compared against a sequential
// reference in tests — while the virtual clock yields the response times of
// Figures 9-13.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"multijoin/internal/costmodel"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/sim"
	"multijoin/internal/xra"
)

// Sink consumes the final result stream of one run; a Push that blocks
// pauses the virtual clock.
type Sink = operator.Sink

// RunResult is the outcome of executing one plan, in the units every
// runtime reports in: virtual microseconds leave the package as
// time.Durations of the same magnitude.
type RunResult struct {
	// Time is the paper's response-time metric: elapsed virtual time from
	// the moment the scheduler starts scheduling until the last operation
	// process finishes (the collect gather at the host is excluded, as it
	// is identical across strategies).
	Time time.Duration
	// Stats holds the structural counters, the simulator-only ones
	// (StartupTime, HandshakeTime, SimEvents, PeakTableTuples*) included.
	Stats operator.Stats
	// Procs exposes the per-processor busy intervals the paper's
	// utilization diagrams are drawn from; nil unless
	// Params.RecordUtilization.
	Procs []*sim.Proc
}

// RunStream executes the plan against the base relations (leaf index ->
// relation) under the given machine parameters: each batch reaching the
// collect process is pushed into sink (transferring ownership of the pooled
// batch) in virtual-time order. A Push that blocks pauses the simulation —
// the virtual clock advances only as fast as the consumer drains — and the
// event loop checks ctx between events, so cancelling it aborts the run at
// the next event boundary with the context's error.
func RunStream(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, params costmodel.Params, sink Sink) (*RunResult, error) {
	return RunPlaced(ctx, plan, base, nil, params, sink)
}

// RunPlaced is RunStream on base relations resident in place: the scans
// read their fragments and lent views from it (relation.Placement), so a
// run of an already placed relation copies nothing. A nil place fragments
// per run.
func RunPlaced(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, place *relation.Placement, params costmodel.Params, sink Sink) (*RunResult, error) {
	if sink == nil {
		return nil, fmt.Errorf("engine: RunStream needs a sink")
	}
	e, err := newEngine(ctx, plan, base, place, params, sink)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// opState is the runtime state of one plan operator.
type opState struct {
	*operator.Node
	// views is a scan's placed fragments lent at the simulator's batch size,
	// per process.
	views     [][]relation.Batch
	instances []instance
	doneCount int
	finished  bool
	finishAt  sim.Time
}

// engineState carries one execution.
type engineState struct {
	sim     *sim.Sim[event]
	machine *sim.Machine
	params  costmodel.Params
	ops     []*opState // plan order, indexed by Node.Index
	stats   operator.Stats

	// The two overheads accumulate in virtual time and enter stats when
	// the run ends.
	startup, handshake sim.Duration

	// The collect process pushes result batches into sink; ctx backs the
	// pushes. err records the first failure, of a push (the run is then
	// aborted at the next event boundary) or of a join step; further pushes
	// are skipped and the run returns it.
	ctx  context.Context
	sink Sink
	err  error

	// Hash-table memory accounting (tuples resident per processor).
	tableNow map[int]int
	tableSum int
}

// addTableTuples adjusts the resident hash-table tuple count of a processor
// and updates the peaks. Negative deltas release memory (tables are dropped
// when their operation process finishes).
func (e *engineState) addTableTuples(procID, delta int) {
	if delta == 0 {
		return
	}
	e.tableNow[procID] += delta
	e.tableSum += delta
	if e.tableNow[procID] > e.stats.PeakTableTuplesPerProc {
		e.stats.PeakTableTuplesPerProc = e.tableNow[procID]
	}
	if e.tableSum > e.stats.PeakTableTuplesTotal {
		e.stats.PeakTableTuplesTotal = e.tableSum
	}
}

// newEngine wires the plan, reads the base relations' fragments and the
// scans' lent views from place (the database's resident placement; nil
// fragments them for this run), creates the operation processes and
// schedules their sequential startup.
func newEngine(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, place *relation.Placement, params costmodel.Params, sink Sink) (*engineState, error) {
	w, err := operator.Wire(plan)
	if err == nil {
		err = w.PlaceWith(base, place.Fragments)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if params.BatchTuples < 1 {
		params.BatchTuples = 1
	}
	e := &engineState{
		sim:      sims.Get().(*sim.Sim[event]),
		machine:  sim.NewMachine(params.RecordUtilization),
		params:   params,
		ctx:      ctx,
		sink:     sink,
		ops:      make([]*opState, len(w.Nodes)),
		tableNow: make(map[int]int),
	}
	if params.EventLimit > 0 {
		e.sim.SetEventLimit(params.EventLimit)
	}
	e.stats.Streams = plan.NumStreams()
	// Sequential startup by the scheduler: process k may begin (receive
	// handshakes, process input) only after the scheduler initialized
	// processes 0..k, each costing Startup (Section 3.5, "startup"). Scan
	// processes are exempt: base-relation fragments are memory resident
	// and their readers need no initialization by the scheduler — this
	// matches the paper's process count of one per join per processor
	// (800 for SP at 80 processors).
	k := 0
	for i, n := range w.Nodes {
		os := &opState{Node: n}
		e.ops[i] = os
		if n.Op.Kind == xra.OpScan {
			os.views = place.Lend(base(n.Op.Leaf), n.Op.FragAttr, n.Frags, params.BatchTuples)
		}
		// One slab per operator for its processes and one for their queues:
		// a join's or the collect's queue peaks at about twice its
		// in-streams (a scan has none and queues its chunks at start).
		os.instances = make([]instance, len(n.Op.Procs))
		c := 2 * n.InStreams()
		queues := make([]operator.Msg, len(n.Op.Procs)*c)
		for idx, procID := range n.Op.Procs {
			in := &os.instances[idx]
			*in = instance{e: e, op: os, idx: idx, proc: e.machine.Proc(procID), label: opLabel(n.Op),
				queue: queues[idx*c : idx*c : (idx+1)*c]}
			in.join.Init(n, params.BatchTuples)
			e.stats.Processes++
			if n.Op.Kind != xra.OpScan && n.Op.Kind != xra.OpCollect {
				k++
				e.startup += params.Startup
			}
			in.startupAt = sim.Time(sim.Duration(k) * params.Startup)
			e.sim.At(in.startupAt, event{in: in, kind: evActivate})
		}
	}
	return e, nil
}

// wall is a span or point of virtual time as the time.Duration of the same
// magnitude.
func wall[T ~int64](us T) time.Duration { return time.Duration(us) * time.Microsecond }

// sims keeps the simulators of ended runs, so that a run starts from one
// whose heap and slots an earlier run grew.
var sims = sync.Pool{New: func() any { return sim.New[event]() }}

// run drains the event loop into the sink and assembles the run result. Its
// simulator goes back to sims, reset, however the run ends.
func (e *engineState) run() (*RunResult, error) {
	defer func() {
		e.sim.Reset()
		sims.Put(e.sim)
	}()
	if _, err := e.sim.RunContext(e.ctx, fire); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if e.err != nil {
		return nil, fmt.Errorf("engine: %w", e.err)
	}
	var last sim.Time
	e.stats.OpDone = make(map[string]time.Duration, len(e.ops))
	for _, os := range e.ops {
		if !os.finished {
			return nil, fmt.Errorf("engine: operator %q never finished (deadlocked plan?)", os.Op.ID)
		}
		e.stats.OpDone[os.Op.ID] = wall(os.finishAt)
		if os.Op.Kind != xra.OpCollect && os.finishAt > last {
			last = os.finishAt
		}
		for i := range os.instances {
			e.stats.AddTransport(os.instances[i].out)
		}
	}
	e.stats.StartupTime, e.stats.HandshakeTime = wall(e.startup), wall(e.handshake)
	e.stats.SimEvents = e.sim.Processed()
	res := &RunResult{Time: wall(last), Stats: e.stats}
	if e.params.RecordUtilization {
		res.Procs = e.machine.Procs()
	}
	return res, nil
}

func (o *opState) depsDone(e *engineState) bool {
	for _, d := range o.After {
		if !e.ops[d.Index].finished {
			return false
		}
	}
	return true
}

// opLabel is the short label used in utilization diagrams: the join number
// for joins, "s" for scans.
func opLabel(op *xra.Op) string {
	switch op.Kind {
	case xra.OpScan:
		return "s"
	case xra.OpCollect:
		return "c"
	default:
		return fmt.Sprintf("%d", op.JoinID)
	}
}

// opFinished is called when the last instance of an operator completed.
func (e *engineState) opFinished(os *opState) {
	os.finished = true
	os.finishAt = e.sim.Now()
	for _, d := range os.Dependents {
		dep := e.ops[d.Index]
		if !dep.depsDone(e) {
			continue
		}
		for i := range dep.instances {
			dep.instances[i].tryActivate()
		}
	}
}
