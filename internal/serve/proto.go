// Package serve exposes a long-lived multijoin Engine over TCP: a thin
// query-serving front end in the PRISMA/DB spirit, where the machine
// belongs to the system and many clients share its processors and memory.
//
// The byte format is package wire's — the frames, the gob control
// envelope, result rows as columnar blocks (a result batch is encoded
// once, column-at-a-time, with no per-tuple step), the credit window, and
// the one table of every frame kind, serve's 0x20–0x28 included — and is
// specified in its documentation. What follows is what the front door
// builds on it. Every connection opens with a HELLO in each direction
// (helloMsg: protocol version 4 and role), each read under helloTimeout.
// Each direction's control messages are one gob stream, decoded in order
// by the connection's one reader; a type crosses a connection once. Tuples
// never travel as gob: DATA and VAPPLY frames carry columnar blocks raw,
// and neither end allocates per tuple to read them.
//
// A query is one credit-windowed stream: the client picks a stream id and
// an initial window W in SUBMIT; the server may have at most W unconsumed
// DATA frames outstanding and earns more only through CREDIT frames, so a
// stalled client exerts backpressure all the way into the engine's
// push-based cursor instead of ballooning server memory. After EOS the
// server sends DONE with the query's Result stats (rows, wall time, queue
// wait, spilled bytes, plan-cache hit). CANCEL aborts the query's context;
// the server acknowledges with ERROR carrying context.Canceled's message.
// The client decodes each DATA frame into a row buffer it recycles: the
// tuples Stream.Recv returns are valid until the next Recv on that stream.
//
// A materialized view is one stream id held open across rounds: VCREATE
// populates the view on the server's engine (CreateView, the FP network
// kept resident) and answers VOK carrying the database's per-relation
// cardinalities so the client can synthesize join-compatible deltas;
// each VAPPLY carries one round of base-relation deltas, raw —
// sid u32 | ndeltas u32 | ndeltas × (rel i32 | len u32 | len bytes), the
// bytes being the signed columnar blocks of relation.AppendSignedBlocksBytes
// — which the server parses in place from its read buffer, and answers
// VRESULT once the view is exact again; VCLOSE releases the view's
// resident tables and answers DONE. View operations on a connection
// execute synchronously in its demultiplex loop — a ticker connection is
// dedicated to its view, and a refresh round is the unit of interest.
package serve

import (
	"encoding/binary"
	"fmt"
	"time"

	"multijoin/internal/relation"
)

// protoVersion is carried in every HELLO; both ends must agree exactly.
// Version 2 added the materialized-view kinds (0x24-0x28) and the signed
// columnar block format they carry. Version 3 made the control payloads
// one gob stream per direction: a version-2 peer re-sends every type
// descriptor and would fail on its second frame with a duplicate type.
// Version 4 carries VAPPLY raw instead of as a gob value, which a
// version-3 server would read as a malformed gob message.
const protoVersion = 4

// The front door's control frame kinds; HELLO and the tuple-stream kinds
// are package wire's.
const (
	fsSubmit byte = 0x20
	fsCancel byte = 0x21
	fsDone   byte = 0x22
	fsError  byte = 0x23

	fsViewCreate byte = 0x24
	fsViewOK     byte = 0x25
	fsViewApply  byte = 0x26
	fsViewResult byte = 0x27
	fsViewClose  byte = 0x28
)

// maxFrame is the largest frame either end of a serve connection accepts.
// The front door reads bytes from peers nobody has vouched for, so the cap
// is sized against its largest legitimate frame and not against dist's
// (whose SETUP carries whole relations): a DATA frame is one of the
// runtime's result batches, 256 tuples or 6 KiB by default, and the big
// one is a VAPPLY round — 31 KiB in mjperf's view_refresh, 24 bytes and a
// sign bit per delta tuple, raw. 16 MiB leaves room for a round of some
// 600 000 delta tuples and still bounds what four hostile bytes can make a
// connection allocate: the read buffer, and the server's round buffers,
// which a VAPPLY is decoded into only once its framing holds.
const maxFrame = 16 << 20

// helloTimeout bounds a client's dial and either end's wait for the
// peer's HELLO, so that a peer which connects and never speaks does not
// pin a goroutine until shutdown.
const helloTimeout = 10 * time.Second

// Connection roles carried in HELLO.
const (
	roleClient = "client"
	roleServer = "server"
)

// helloMsg opens every connection, in both directions.
type helloMsg struct {
	Version int
	Role    string
}

// submitMsg is one query request. The server owns the database; a client
// names the query shape over it (the paper's workload vocabulary) rather
// than shipping relations. ID is the stream id of the reply; Window is the
// initial credit (batches the server may send before the first CREDIT).
type submitMsg struct {
	ID        uint32
	Shape     string // jointree shape name: wide-bushy, left-linear, ...
	Relations int    // join fan-in; 0 means every relation in the DB
	Strategy  string // SP, SE, RD, FP
	Runtime   string // "", "parallel", "spill", ...
	Procs     int    // plan processor count; 0 means the engine default
	Window    int    // initial credit in batches; 0 means DefaultWindow
}

// doneMsg closes a successful stream: the query's Result stats.
type doneMsg struct {
	ID             uint32
	Rows           int64
	WallNanos      int64
	QueueWaitNanos int64
	SpilledBytes   int64
	MemReserved    int64
	PlanCacheHit   bool
}

// errMsg closes a failed (or cancelled) stream.
type errMsg struct {
	ID  uint32
	Msg string
}

// viewCreateMsg materializes one view on the server's engine. The strategy
// is always FP — a resident view is a pipelining network by construction —
// so unlike submitMsg there is none to pick.
type viewCreateMsg struct {
	ID        uint32
	Shape     string // jointree shape name ("" means left-linear)
	Relations int    // join fan-in; 0 means every relation in the DB
	Procs     int    // plan processor count; 0 means the engine default
}

// viewOKMsg acknowledges a populated view. Cards carries the database's
// per-relation cardinalities so the client can synthesize join-compatible
// delta tuples without shipping the relations.
type viewOKMsg struct {
	ID       uint32
	Rows     int64   // initial result cardinality
	Resident int64   // resident bytes charged to the engine's budget
	Cards    []int64 // base-relation cardinalities, chain order
}

// A VAPPLY frame is one maintenance round, raw and in the shape of a DATA
// frame — no gob:
//
//	sid u32 | ndeltas u32 | ndeltas × (rel i32 | len u32 | len bytes of blocks)
//
// where each delta's blocks are its relation's signed columnar blocks
// (relation.AppendSignedBlocksBytes), inserts then deletes, and every
// integer is little-endian.

// appendDelta appends one delta of a VAPPLY payload: rel, then ins as
// inserts and del as deletes.
func appendDelta(p []byte, rel int32, ins, del *relation.Batch) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(rel))
	at := len(p)
	p = relation.AppendSignedBlocksBytes(append(p, 0, 0, 0, 0), ins, del, 0)
	binary.LittleEndian.PutUint32(p[at:], uint32(len(p)-at-4))
	return p
}

// nextDelta splits the delta at the head of p, the deltas of a VAPPLY
// payload. ok is false when its 8-byte header is short or its length runs
// past the end of p.
func nextDelta(p []byte) (rel int, blocks, rest []byte, ok bool) {
	if len(p) < 8 || uint64(binary.LittleEndian.Uint32(p[4:])) > uint64(len(p)-8) {
		return 0, nil, nil, false
	}
	end := 8 + int(binary.LittleEndian.Uint32(p[4:]))
	return int(int32(binary.LittleEndian.Uint32(p))), p[8:end], p[end:], true
}

// parseApply checks a VAPPLY payload's framing — every length against the
// bytes that remain, and no byte left over — and returns its stream id,
// delta count and deltas. It sizes nothing from the header: a count that
// the payload cannot hold, at 8 bytes a delta at least, fails at once.
func parseApply(p []byte) (sid uint32, n int, deltas []byte, ok bool) {
	if len(p) < 8 || uint64(binary.LittleEndian.Uint32(p[4:])) > uint64(len(p)-8)/8 {
		return 0, 0, nil, false
	}
	sid, n, deltas = binary.LittleEndian.Uint32(p), int(binary.LittleEndian.Uint32(p[4:])), p[8:]
	rest, ok := deltas, true
	for i := 0; i < n && ok; i++ {
		_, _, rest, ok = nextDelta(rest)
	}
	return sid, n, deltas, ok && len(rest) == 0
}

// viewResultMsg answers one VAPPLY once the view is exact again.
type viewResultMsg struct {
	ID        uint32
	Inserted  int64
	Deleted   int64
	Unmatched int64
	Changes   int64 // signed changes to the result multiset this round
	Rows      int64 // result cardinality after the round
	WallNanos int64
}

// DefaultWindow is the initial credit used when SUBMIT carries none.
const DefaultWindow = 8

// checkHello validates a received HELLO.
func checkHello(h helloMsg, wantRole string) error {
	if h.Version != protoVersion {
		return fmt.Errorf("serve: protocol version mismatch: got %d, want %d", h.Version, protoVersion)
	}
	if h.Role != wantRole {
		return fmt.Errorf("serve: unexpected peer role %q, want %q", h.Role, wantRole)
	}
	return nil
}
