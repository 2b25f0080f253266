package operator

import (
	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// Join is the input side of one operation process: the punctuation count of
// its ports and, once started on a join operator, the hash-join state
// machine. It is not safe for concurrent use and needs no hand-over: every
// driver applies a process's batches where the process itself runs (the
// goroutine runtime on the goroutine of the worker that hosts the process,
// inside its processor's slot).
//
// A process's life allocates nothing of its own but a simple join's held
// probe queue, made on its first held batch at the number of probe batches
// the process is estimated to receive (Hold) and kept, emptied, across EOS
// and Reset: the hash join is held by value, and its tables come recycled.
type Join struct {
	node      *Node
	want, got [numPorts]int
	batch     int // the driver's transport size: tuples per delivered batch at most

	// Once a join operator has started, pipe is its in-memory join or grace
	// its out-of-core one; an operator without join state, or a join out of
	// core, keeps the zero pipe, which holds no table and whose operands
	// close without effect. simple marks an in-memory simple join: it holds
	// probe input until its build operand has ended.
	pipe     hashjoin.Pipelining
	grace    *hashjoin.Grace
	simple   bool
	resident bool  // a process of a resident network (Start)
	held     []Msg // simple join: probe input that arrived during the build phase
}

// Spill is what an out-of-core run lends its join processes: the memory
// meter their buffered operands are accounted against, the temp directory
// their partition files go to, and the accounted pool of the batches those
// files are re-read into.
type Spill struct {
	Meter *spill.Meter
	Dir   string
	Pool  *relation.BatchPool
}

// Init binds the Join to a process of operator n, whose driver delivers
// batches of at most batch tuples: the punctuation counts it waits for.
func (j *Join) Init(n *Node, batch int) { j.node, j.want, j.batch = n, n.eosWant, batch }

// Reset releases the process (Release) and returns it to its state after
// Init and Expect, for a driver that may run the same process again: its
// held-probe queue keeps its memory, cleared so that it references no batch.
func (j *Join) Reset() {
	j.Release()
	clear(j.held[:cap(j.held)])
	*j = Join{node: j.node, want: j.want, batch: j.batch, held: j.held[:0]}
}

// Expect overrides how many punctuation marks port p waits for. Init's count
// is one per stream; a driver whose producer processes share outboxes
// delivers one per outbox instead (Outbox.Punctuate).
func (j *Join) Expect(p Port, marks int) { j.want[p] = marks }

// Marks returns the number of punctuation marks the process waits for over
// all its ports.
func (j *Join) Marks() int { return j.want[Build] + j.want[Probe] + j.want[In] }

// Start creates the join algorithm's state once the process may begin
// (processes that wait on After dependencies hold no tables meanwhile). Both
// algorithms are one hash-join, whose tables come into being on their
// first insert, sized from the operator's estimated per-process operand
// cardinality so steady-state inserts never rehash; a simple join differs
// only in holding its probe input until the build operand has ended (Hold,
// EOS), so it never creates a probe-side table. On operators other than
// joins Start does nothing. A resident join — a process of a materialized
// view, fed signed deltas — is symmetric whatever the operator's algorithm,
// since a view maintains both operands, and its punctuation ends a round,
// not an operand, so no table ever closes.
//
// Given a run's spill resources, a join starts out of core instead, whatever
// its algorithm: a Grace join (hashjoin.Grace) that partitions both operands
// as they arrive, to disk once the meter is over budget, and produces every
// result in Drain. It holds nothing, and its punctuation only counts.
func (j *Join) Start(resident bool, sp *Spill) {
	n := j.node
	spec := hashjoin.Spec{BuildIsLower: n.Op.BuildIsLower}
	j.resident = resident
	j.simple = n.Op.Kind == xra.OpSimpleJoin && !resident && sp == nil
	switch {
	case n.Op.Kind != xra.OpSimpleJoin && n.Op.Kind != xra.OpPipeJoin:
	case sp != nil:
		j.grace = hashjoin.NewGrace(spec, sp.Meter, sp.Dir, sp.Pool)
	default:
		j.pipe = hashjoin.NewPipeliningSized(spec, n.TableHint())
	}
}

// Hold parks m and reports true when it must wait: probe input of a simple
// join whose build phase is still open. The batch stays owned by the
// process until EOS hands it back. The first batch a process ever holds
// sizes the queue for all the probe batches it is estimated to receive: the
// probe operand's per-process estimate (TableHint's rule) in full transport
// batches, plus one partial batch per producer outbox (one per punctuation
// mark). A wrong estimate costs an append.
func (j *Join) Hold(m Msg) bool {
	if !j.simple || m.Port != Probe || j.pipe.SideClosed(true) {
		return false
	}
	if j.held == nil {
		est := relation.PerFragmentCap(j.node.In[Probe].EstCard, len(j.node.Op.Procs))
		j.held = make([]Msg, 0, est/j.batch+j.want[Probe])
	}
	j.held = append(j.held, m)
	return true
}

// ApplyInto joins one data batch into the result buffer the driver brings,
// which it empties first, and returns it (empty in a simple join's build
// phase). Insertions probe, then insert. A batch of deletions (Sign < 0,
// resident processes only) retracts each row from the process's own table
// first, drops the rows that matched nothing — counting them (Unmatched) —
// and probes the other table with the rest: the result tuples to retract,
// emitted with the batch's sign. The caller keeps ownership of m.Batch and
// of res.
//
// An out-of-core join partitions the batch by port instead, needs no res and
// returns no result; its error is the partitioning's (spill I/O), the only
// one the step can fail with.
func (j *Join) ApplyInto(res *relation.Batch, m Msg) (*relation.Batch, error) {
	switch {
	case j.grace != nil && m.Port == Build:
		return nil, j.grace.AddBuild(m.Batch)
	case j.grace != nil:
		return nil, j.grace.AddProbe(m.Batch)
	}
	res.Reset()
	switch {
	case m.Sign < 0:
		j.pipe.RetractInto(res, m.Batch, m.Port == Build)
	case m.Port == Build:
		j.pipe.FromBuildSideBatchInto(res, m.Batch)
	default:
		j.pipe.FromProbeSideBatchInto(res, m.Batch)
	}
	return res, nil
}

// TakesSlot reports whether the join's steps compute on the process's
// processor. An out-of-core join's do not: partitioning and Drain may block
// on file I/O, and a blocked process must not occupy a processor.
func (j *Join) TakesSlot() bool { return j.grace == nil }

// Drain produces an out-of-core join's results once both operands have
// ended: it joins the partitions one at a time and hands each result batch to
// emit, which must copy what it keeps and may abort the drain with an error.
// On an in-memory join it does nothing.
func (j *Join) Drain(emit func(*relation.Batch) error) error {
	if j.grace == nil {
		return nil
	}
	return j.grace.Drain(emit)
}

// EOS counts one punctuation mark on port p. When it is the last one of the
// port, the operand has ended: the join stops inserting the other operand's
// tuples (no future match can need them) and gives back the other
// operand's table (no future tuple can probe it), and the end of a simple
// join's build phase returns the probe messages held meanwhile, in arrival
// order, for the driver to apply before any later input (the returned slice
// is the queue's memory, which Reset clears). A simple join's
// probe operand may end while its input is still held, so it never closes:
// the build batches still to come must go into the table. A resident
// process's marks end rounds instead: the first mark after a complete round
// starts the count afresh, and no operand ever ends. An out-of-core join,
// and an operator without join state, only counts: closing their zero pipe
// does nothing.
func (j *Join) EOS(p Port) []Msg {
	if j.resident && j.got == j.want {
		j.got = [numPorts]int{}
	}
	j.got[p]++
	if j.got[p] != j.want[p] || j.resident {
		return nil
	}
	if p == Build {
		j.pipe.CloseBuildSide()
		held := j.held
		j.held = held[:0]
		return held
	}
	if !j.simple {
		j.pipe.CloseProbeSide()
	}
	return nil
}

// Done reports whether every port has received all its punctuation — of the
// current round, on a resident process. For an out-of-core join that means
// both operands have ended, and Drain may run.
func (j *Join) Done() bool { return j.got == j.want }

// Release recycles the hash tables for the joins still running, or closes
// the out-of-core join: its partition files and meter reservations go. It is
// idempotent, so a driver may call it on every exit path.
func (j *Join) Release() {
	j.pipe.Release()
	if j.grace != nil {
		j.grace.Close()
		j.grace = nil
	}
}

// MemBytes returns the resident size of a resident process's tables.
func (j *Join) MemBytes() int64 { return j.pipe.MemBytes() }

// AppendResult appends a resident process's share of the join result, the
// join of its two tables, to rel (hashjoin.Pipelining.AppendResult).
func (j *Join) AppendResult(rel *relation.Relation) { j.pipe.AppendResult(rel) }

// Unmatched returns how many of a resident process's deletions found no row
// to retract since the last call.
func (j *Join) Unmatched() int64 { return j.pipe.Unmatched() }

// Resident returns the number of tuples held in the join's hash tables now:
// once an operand has ended, only the tables still probed count, so a
// driver that holds a process's tables until it finishes (the simulator's
// accounting) must count what it added rather than read this again.
func (j *Join) Resident() int {
	b, p := j.pipe.Sizes()
	return b + p
}

// Symmetric reports whether a tuple arriving on port p of a started join
// performs both table actions of the pipelining join, probe and insert: the
// other operand is still open and its table non-empty. Otherwise the tuple
// costs one action like a simple join's — always, on a simple join, whose
// probe-side table stays empty — which is why FP degenerates to RD-like
// per-tuple cost on linear trees (Figure 13).
func (j *Join) Symmetric(p Port) bool {
	b, pr := j.pipe.Sizes()
	if p == Build {
		return !j.pipe.SideClosed(false) && pr > 0
	}
	return !j.pipe.SideClosed(true) && b > 0
}
