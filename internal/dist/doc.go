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
// # Wire protocol
//
// Every connection carries a sequence of length-prefixed frames:
//
//	frame := length(uint32 LE) kind(uint8) payload
//
// where length counts the kind byte plus the payload. The first frame on
// any connection must be HELLO, carrying the protocol version, the run id
// and the connection kind (control or data); a receiver closes the
// connection on any mismatch. Frame kinds and payloads:
//
//	HELLO  0x01  gob(helloMsg)   version, run id, node id, kind, data addr
//	SETUP  0x02  gob(setupMsg)   worker count, peer addrs, plan text
//	                             (xra.Encode), leaf cardinalities, batch
//	                             geometry, credit window, this worker's
//	                             scan fragments as encoded blocks
//	READY  0x03  (empty)         worker: wiring built, data listener open
//	START  0x04  (empty)         coordinator: all workers ready, execute
//	DONE   0x05  gob(doneMsg)    worker: local run complete + its counters
//	CANCEL 0x06  (empty)         coordinator: ctx cancelled, unwind
//	DATA   0x10  sid(u32) block  one batch of stream sid, encoded with the
//	                             columnar block codec of package relation
//	                             (count header + U1, U2, Check columns)
//	                             or a signed block (below)
//	EOS    0x11  sid(u32)        stream sid ended (producer finished)
//	CREDIT 0x12  sid(u32) n(u32) receiver grants n more batches on sid
//
// Control frames (HELLO..CANCEL) flow on each worker's control connection
// to the coordinator; DATA/EOS/CREDIT flow on direct data connections
// between the nodes. Stream ids are the canonical plan-wide enumeration of
// operator.Wiring.Streams, so both endpoints derive identical wiring from the
// plan text alone.
//
// # Signed tuple blocks (protocol version 2)
//
// Incremental view maintenance carries deltas — insertions and
// retractions — over the same block codec. A signed block is an ordinary
// columnar block whose count header has relation.SignedBlockFlag (bit 62)
// set and which appends one extra section after the Check column: a sign
// bitmap of ceil(n/8) bytes, bit i set meaning tuple i is a delete
// (retraction) and clear meaning an insert. Unsigned blocks are unchanged
// byte-for-byte, so the two kinds interleave freely on a stream; the flag
// bit makes a signed block unmistakable to a version-2 reader and an
// implausible batch length to anything older, which is why the HELLO
// version moved to 2. Encoders/decoders live in package relation
// (AppendSignedBlockBytes, DecodeSignedBlocks); the serving layer's
// VAPPLY frames (internal/serve, its own protocol version 2) transport
// view deltas as exactly these blocks.
//
// # Backpressure
//
// Data streams are credit-windowed: a sender starts with a window of W
// batch credits per stream, spends one per DATA frame, and blocks when the
// window is empty; the receiver grants a credit back only after the batch
// has been handed to the consuming process's inbox. The receiver thus
// buffers at most W undelivered batches per stream, a slow consumer
// propagates backpressure to the remote producer exactly like a full
// channel does in-process, and one stalled stream never blocks the other
// streams multiplexed on the same connection (frames are dispatched to
// per-stream queues before delivery).
//
// # Scheduling approximation
//
// Op.After start dependencies are enforced node-locally: an operator with
// no local instances counts as complete. This is sound — a process whose
// dependencies are pending buffers early input and replays it (the stash),
// so cross-node After edges relax scheduling, never correctness.
package dist
