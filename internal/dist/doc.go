// Package dist executes xra plans across multiple OS processes on a
// shared-nothing model: a coordinator partitions the plan's operation
// processes over N mjworker child processes (plan processor id p lives on
// worker p mod N, the same placement rule the parallel runtime uses for its
// processor slots; the collect process stays on the coordinator), ships each
// worker its plan fragment and pre-placed base-relation fragments, and
// streams every node-crossing redistribution edge over loopback TCP as
// pooled columnar batch blocks. Each node runs the ordinary worker loop of
// package parallel over its local process subset (parallel.Partial); only
// the transport is new.
//
// # Nodes
//
// The coordinator (node -1) and every worker are the same kind of node,
// built in one place: a node owns the batch pool and the data plane, its
// share of operator.Wiring.Streams (an ingress queue for each stream that
// arrives from another node, and the streams that leave it grouped by
// target node), one accept loop, one parallel.RunStream over its Partial
// (Local is "placed on this node", MaxProcs the number of distinct
// processors placed on it) and one teardown. What differs between the two
// sides is only the control choreography below.
//
// # Wire protocol
//
// The byte format — length-prefixed frames, the gob control envelope, the
// DATA/EOS/CREDIT tuple-stream frames, signed blocks, and the one table of
// every frame kind — is package wire's and is specified in its
// documentation. What is dist's own is the choreography on top of it.
//
// Every connection opens with HELLO (helloMsg: protocol version 4, run id,
// node id, connection kind, and on control connections the worker's data
// listener address). The accept loop only accepts: each connection's HELLO
// is read under a deadline on a goroutine of the node's plane, so a peer
// that is slow or silent holds up no other connection, and a connection
// whose HELLO is refused (a mismatch, or a first frame that is no HELLO)
// is closed and dropped — a stray dialer never fails the run.
//
// Each worker holds one control connection to the coordinator, which
// carries, in order: the coordinator's SETUP (worker count, peer
// addresses, the plan as xra text, leaf cardinalities, batch size and
// channel depth, this worker's scan fragments as encoded blocks), the
// worker's READY (wiring built, data listener open), the coordinator's
// START once every worker is ready, and the worker's DONE with its share
// of the counters. The coordinator waits for HELLO, READY and DONE from
// every worker under one deadline per phase. A CANCEL from the coordinator
// may take the place of any frame a worker waits for and unwinds it; the
// coordinator closing the control connection ends the run. Tuple streams
// flow on direct data connections between the nodes, dialed after START,
// one per pair and direction. Stream ids are the canonical plan-wide
// enumeration of operator.Wiring.Streams, so both endpoints derive
// identical wiring from the plan text alone.
//
// # Backpressure
//
// Every node-crossing stream is credit-windowed (package wire) with a
// window of the run's resolved ChannelDepth: the receiving node grants a
// credit back only after the batch has been handed to the consuming
// process's inbox, and dispatches frames off a connection into per-stream
// queues of that capacity before delivery. A slow consumer thus propagates
// backpressure to the remote producer exactly like a full channel does
// in-process, and one stalled stream never blocks the other streams
// multiplexed on the same connection.
//
// # Scheduling approximation
//
// Op.After start dependencies are enforced node-locally: an operator with
// no local instances counts as complete. This is sound — a process whose
// dependencies are pending buffers early input and replays it (the stash),
// so cross-node After edges relax scheduling, never correctness.
package dist
