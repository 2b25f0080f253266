package dist

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// protoVersion is the protocol version carried in every HELLO frame; both
// ends must agree exactly. Version 2 extended the DATA payload grammar
// with signed tuple blocks (package wire's documentation) — a version-1
// reader would misparse the flagged count as an implausible batch length.
// Version 3 made the control payloads one gob stream per direction (package
// wire), which a version-2 peer's fresh encoder per frame breaks. Version 4
// dropped SETUP's credit window, which always equalled its ChannelDepth.
const protoVersion = 4

// The control frame kinds of the distributed runtime; HELLO and the
// tuple-stream kinds are package wire's, whose documentation has the one
// table of all of them.
const (
	ftSetup  byte = 0x02
	ftReady  byte = 0x03
	ftStart  byte = 0x04
	ftDone   byte = 0x05
	ftCancel byte = 0x06
)

// maxFrame bounds any frame a reader accepts: large enough for a SETUP
// carrying a big relation's fragments, small enough to reject corrupt
// length prefixes before allocating.
const maxFrame = 1 << 28

// Connection kinds carried in HELLO.
const (
	kindControl = "control"
	kindData    = "data"
)

// helloMsg opens every connection: protocol version, run id, the sender's
// node id, the connection kind, and (control connections only) the
// worker's data listener address.
type helloMsg struct {
	Version  int
	RunID    string
	Node     int
	Kind     string
	DataAddr string
}

// fragMsg carries the pre-placed base-relation fragment of one scan
// instance: the fragment encoded as consecutive columnar blocks
// (relation.AppendBlocksBytes).
type fragMsg struct {
	OpID   string
	Idx    int
	Blocks []byte
}

// setupMsg ships one worker everything it needs to build its partial run.
type setupMsg struct {
	Workers      int
	Node         int
	PeerAddrs    []string // worker data listener addresses, by node id
	CoordAddr    string   // coordinator data listener address
	PlanText     string   // xra.Encode of the plan
	LeafCards    map[int]int
	BatchTuples  int
	ChannelDepth int // also every node-crossing stream's credit window
	Frags        []fragMsg
}

// doneMsg reports one worker's completed run and its share of the unified
// counters.
type doneMsg struct {
	TuplesMovedRemote int64
	TuplesLocal       int64
	Batches           int64
	Goroutines        int
	BytesOnWire       int64
	OpWall            map[string]time.Duration
}

// newRunID returns a fresh random run identifier, the token every
// connection of one distributed run is tied to.
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a clock-free
		// constant still works single-run since connections also match on
		// address.
		return "mjrun-static"
	}
	return "mjrun-" + hex.EncodeToString(b[:])
}

// checkHello validates a received HELLO against this run.
func checkHello(h helloMsg, runID string) error {
	if h.Version != protoVersion {
		return fmt.Errorf("dist: protocol version mismatch: got %d, want %d", h.Version, protoVersion)
	}
	if h.RunID != runID {
		return fmt.Errorf("dist: run id mismatch: got %q", h.RunID)
	}
	if h.Kind != kindControl && h.Kind != kindData {
		return fmt.Errorf("dist: unknown connection kind %q", h.Kind)
	}
	return nil
}
