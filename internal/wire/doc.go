// Package wire is the one place that knows the byte format this
// repository puts on a socket. Two protocols speak it: the distributed
// runtime between its nodes (internal/dist) and the query-serving front
// door between mjserve and its clients (internal/serve). Each owns its
// control choreography and a range of frame kinds; the framing, the gob
// control envelope, the tuple-stream frames and the credit window are
// here, once.
//
// # Frames
//
// Every connection carries a sequence of length-prefixed frames:
//
//	frame := length(uint32 LE) kind(uint8) payload
//
// where length counts the kind byte plus the payload. A reader rejects a
// length of zero or above the cap its protocol gave NewConn/Dial before it
// allocates anything, so a peer can make it buffer at most one cap's worth
// of bytes. Writes are frame-atomic: concurrent senders multiplex one
// connection and never interleave inside a frame. The first frame on any
// connection is HELLO, and a receiver hangs up on any mismatch.
//
// All frame kinds, with the protocol that owns each range:
//
//	shared (this package)
//	HELLO   0x01  gob(hello)         version + who is speaking; each
//	                                 protocol has its own hello struct
//	DATA    0x10  sid(u32) block     one batch of stream sid as one block
//	                                 of package relation's columnar codec
//	                                 (count header + U1, U2, Check columns)
//	EOS     0x11  sid(u32)           stream sid ended
//	CREDIT  0x12  sid(u32) n(u32)    receiver grants n more DATA on sid
//
//	dist control, worker <-> coordinator (internal/dist)
//	SETUP   0x02  gob(setupMsg)      plan text, peers, geometry, fragments
//	READY   0x03  (empty)            worker: wired, data listener open
//	START   0x04  (empty)            coordinator: everyone ready, execute
//	DONE    0x05  gob(doneMsg)       worker: finished + its counters
//	CANCEL  0x06  (empty)            coordinator: unwind
//
//	serve control, client <-> server (internal/serve)
//	SUBMIT  0x20  gob(submitMsg)     client: query spec, stream id, window
//	CANCEL  0x21  sid(u32)           client: abort the query
//	DONE    0x22  gob(doneMsg)       server: per-query stats, after EOS
//	ERROR   0x23  gob(errMsg)        server: stream failed or cancelled
//	VCREATE 0x24  gob(viewCreateMsg) client: materialize a view
//	VOK     0x25  gob(viewOKMsg)     server: view ready + database shape
//	VAPPLY  0x26  sid(u32) n(u32)    client: one round of signed deltas,
//	              n × (rel(i32)      raw: each delta's relation, then its
//	              len(u32) blocks)   len bytes of signed blocks
//	VRESULT 0x27  gob(viewResultMsg) server: round applied + its stats
//	VCLOSE  0x28  sid(u32)           client: tear the view down
//
// Control payloads are gob values on one gob stream per connection
// direction (WriteMsg, ReadMsg, DecodeMsg): a Conn's encoder sends each
// type's descriptor once, in the first frame that uses the type, and its
// decoder keeps every definition it has received. A control payload is
// therefore decodable only in order, after every control payload before
// it on the connection — a reader must decode each one it receives, even
// one it would ignore. Since those definitions outlive their frame, a
// peer may define at most MaxTypes types on a connection; DecodeMsg counts
// the definitions in each payload's gob message headers before decoding
// it, fails once the count passes the cap, and refuses any type that
// refers to an interface, whose values could carry definitions of their
// own. Both protocols moved to version 3 of their HELLO with this: version
// 2 encoded every frame with a fresh encoder, whose repeated descriptors a
// version-3 reader rejects as duplicate types. Both are at 4 since: the
// distributed runtime's for a change to its SETUP, serve's for VAPPLY,
// which left gob to carry its blocks raw, as DATA does.
//
// # Credit windows
//
// A tuple stream is credit-windowed. The sender holds a Window of W
// credits, spends one per DATA frame (Take) and blocks when it has none;
// the receiver sends CREDIT only once it has passed a batch on to whoever
// consumes it, and the sender's reader adds the grant to the window
// (Grant, which never blocks — a peer that grants more than was spent only
// raises its own exposure). A receiver therefore buffers at most W
// undelivered batches per stream, a slow consumer slows the remote producer
// exactly as a full channel would in-process, and one stalled stream never
// blocks the others multiplexed on its connection. W is the resolved
// channel depth in dist and the Window of the client's SUBMIT in serve.
//
// # Signed tuple blocks (protocol version 2)
//
// Incremental view maintenance carries deltas — insertions and
// retractions — in the same block codec. A signed block is an ordinary
// columnar block whose count header has relation.SignedBlockFlag (bit 62)
// set and which appends one section after the Check column: a sign bitmap
// of ceil(n/8) bytes, bit i set meaning tuple i is a delete and clear
// meaning an insert. Unsigned blocks are unchanged byte for byte, so the
// two interleave freely; the flag makes a signed block unmistakable to a
// version-2 reader and an implausible tuple count to anything older, which
// is why both HELLO versions moved to 2. The codec is package relation's
// (AppendSignedBlocksBytes, DecodeSignedBlocks, DecodeSignedTuples);
// serve's VAPPLY carries view deltas as exactly these blocks.
package wire
