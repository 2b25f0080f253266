// Package operator is the operation-process kernel shared by the two
// drivers that execute an xra plan: the discrete-event simulator (package
// engine) and the goroutine runtime (package parallel; through its Partial
// seam package dist, and in its resident mode the materialized views of
// package ivm). The paper's execution model is stated here once; the drivers
// add only what is theirs — virtual time and event scheduling, processor
// slots and resident rounds.
//
// # Process model
//
// A plan operator with n processors runs as n operation processes. Every
// process has up to two input ports (Build and Probe for a join, In for the
// collect) and one output edge to the processes of its consumer. An edge is
// either local — a scan stored on the consumer's own processors feeds
// process i from process i over one stream — or a redistribution: every
// producer process hash-routes each tuple on the consumer's join attribute
// to one of the consumer's m processes, n×m streams in all. Wire derives
// all of this from the plan: edges, After dependencies, the number of
// streams ending at each port, cardinality estimates and the placement of
// base-relation fragments.
//
// # Messages and punctuation
//
// Everything a process receives is a Msg: a batch of tuples for one port,
// with a sign, or — when Batch is nil — a punctuation mark on that port.
// Each stream carries exactly one punctuation per unit of work: the
// end-of-stream of a query, the end-of-round token of a view. A process has
// seen all of a port's input once it has counted as many punctuation marks
// as streams end there (Join.Init); because a stream delivers in order,
// every batch its producer sent precedes the mark. A driver that runs
// several processes of an operator as one process (a host) carries the
// streams between two hosts as one: it delivers one mark per host pair and
// tells the consumer so (Join.Expect).
//
// # The join step
//
// Join is the state machine of one process: data on a port yields a result
// batch in the buffer the driver brings; punctuation closes an operand. Both
// join algorithms run on one hash-join state machine, hashjoin.Pipelining,
// which probes and inserts symmetrically and holds a table only while it
// can still be probed: a side's table is created by its first insert, no
// insert goes into a table whose opposite operand has ended, and that table
// is given back the moment the opposite operand ends. The simple join is
// that machine driven so that it never creates its probe-side table: Join
// holds its probe batches until the build operand has ended, closes the
// build side and then hands them back in arrival order, so they only probe.
// Its probe operand never closes — it can end while its batches are still
// held, and the build batches still to come must go into the table.
// Operators without join state (scan and collect) use the same type for its
// punctuation count alone.
//
// A driver may run several processes of one operator as one (Join.Fold):
// one hash join whose tables hold all of their partitions, one held probe
// queue, one punctuation count. Every result row is still one process's —
// the one whose hash partition its join key is in — and the folded join
// tags each with that process's processor for the transport counters
// (Join.Tags), unless no row can stay on its processor anyway.
//
// A process allocates nothing of its own for the step but the input it must
// hold. Join keeps the hash join by value, and the tables come from
// hashjoin's recycle pool and go back to it whole when given back. A simple
// join's held probe queue is allocated on the first batch the process ever
// holds, at the number of probe batches it is estimated to receive: the
// probe operand's estimated share in full transport batches plus one
// partial batch per producer outbox (Join.Hold). A driver that runs the
// same process again (the goroutine runtime's reused shells) Resets it
// instead of starting a new one, and the queue's memory carries over.
//
// The step has an out-of-core mode, for a run short of memory: Join.Start
// given the run's Spill (meter, temp directory, accounted batch pool)
// starts a Grace join (hashjoin.Grace) whatever the operator's algorithm.
// Each batch is then partitioned by port — to disk once the meter is over
// budget — and yields no result; nothing is held, punctuation only counts,
// and Done means both operands have ended. Drain then joins the partitions
// one at a time and produces every result, and Release closes the partition
// files. Partitioning and draining may block on file I/O, so such a step
// takes no processor slot (Join.TakesSlot). The simulator never runs it.
//
// The step is signed. An insertion batch probes the other table and then
// extends its own; a deletion batch first retracts its rows from its own
// table, drops the rows that matched nothing (they cannot have contributed
// anything to retract), and probes the other table with the rest, so its
// results carry the batch's sign downstream. Queries only ever send
// insertions. Deletions come from a resident process (Join.Start's
// resident mode, a materialized view's): it keeps both tables whatever the
// operator's algorithm, and its punctuation ends a round instead of an
// operand — the count starts afresh and no table ever closes, so the next
// round's deltas meet both operands' current state.
//
// # The outbox and its ordering rule
//
// Outbox routes a process's result tuples into one pooled buffer per
// destination and sign lane and delivers a buffer the moment it holds a
// transport batch; Flush delivers the rest and Punctuate ends the unit of
// work on every outgoing stream. The processes of one operator that a driver
// runs as one share one outbox (NewHostOutbox) with one destination per
// consumer host: a tuple is routed to its consumer process by hash, and that
// process's host is the destination; on a local edge the one consumer host
// of the hosted processes' own. A scan on a local edge copies nothing: it
// lends its placed fragment, cut into transport-sized views
// (relation.Batch.Lend), one message per view (Lend), exactly the messages a
// copy would have filled. The transport counters are taken where this is
// known: tuples at Emit, local or remote by the processors of the process
// that produced each (EmitFrom names it for the whole batch, EmitTagged per
// row) and of its consumer process, so that they stay plan properties under
// any folding; batches at delivery, which is what folding changes.
// One rule orders deliveries: a buffer of a later lane for destination d is
// delivered only after any pending buffer of an earlier lane for d. Lanes are Insert then Delete, so a retraction can never
// overtake the insertion it cancels, while an insertion may overtake a
// deletion (per-tuple counts only rise before they fall). Queries emit on
// the Insert lane only and the rule is vacuous for them.
//
// # Who owns a batch
//
// A transport batch is drawn from a pool by the outbox that fills it and is
// owned by exactly one party at a time: the outbox until delivery, then the
// transport (an inbox channel, a simulator event), then the consuming
// process, which returns it to the pool of its capacity once applied — or
// passes ownership on to the run's Sink at the collect.
//
// A batch's capacity and the transport size may differ. The goroutine
// runtime sizes each edge's transport batches to what its buffers are
// estimated to carry (Node.BufferSize) and starts its buffers there, so a
// batch is delivered at its capacity. The simulator keeps the paper's
// transport size and starts each buffer at the estimate instead: a buffer
// that fills below the transport size is swapped for a batch of twice its
// capacity from relation's shared pools, and the outbox returns the old one
// to the pool of its own capacity. Delivery still happens only at the
// transport size or on Flush, so messages and counters are those of
// full-capacity buffers; a consumer may receive batches of several
// capacities, and returns each by its own (relation.PutShared). A delivery that loses the race with
// cancellation returns its batch to the pool itself (Send); batches parked
// in inboxes when a run is cancelled are garbage, reclaimed from an
// accounted pool's meter by Settle.
//
// Nobody owns a lent view. It travels like a transport batch — held, applied,
// handed back — but every pool drops it on Put, so the consumer needs no
// case of its own and the fragment under it is never written; the memory is
// the database's, and a memory budget does not count it.
package operator
