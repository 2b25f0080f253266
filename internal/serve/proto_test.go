package serve

import (
	"net"
	"slices"
	"strings"
	"testing"

	"multijoin/internal/relation"
	"multijoin/internal/wire"
)

// pipePair returns the two framed ends of one net.Pipe.
func pipePair(t *testing.T) (w, r *wire.Conn) {
	a, b := net.Pipe()
	w, r = wire.NewConn(a, maxFrame), wire.NewConn(b, maxFrame)
	t.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

// definedTypes sends every message once from one end of a pipe and returns
// how many gob types the other end saw defined.
func definedTypes(t *testing.T, msgs ...any) int {
	w, r := pipePair(t)
	go func() {
		for _, m := range msgs {
			w.WriteMsg(fsDone, m)
		}
	}()
	for range msgs {
		_, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DecodeMsg(payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	return r.Types()
}

// TestControlTypes counts the gob types each end of a connection defines
// by sending every message it ever sends as gob: 3 from the client (VAPPLY
// is raw) and 6 from the server, which wire.MaxTypes must cover at least
// twice over.
func TestControlTypes(t *testing.T) {
	for _, tc := range []struct {
		end  string
		msgs []any
		want int
	}{
		{roleClient, []any{helloMsg{}, submitMsg{}, viewCreateMsg{}}, 3},
		{roleServer, []any{helloMsg{}, doneMsg{}, errMsg{}, viewOKMsg{}, viewResultMsg{}}, 6},
	} {
		if n := definedTypes(t, tc.msgs...); n != tc.want || 2*n > wire.MaxTypes {
			t.Errorf("%s defines %d types, want %d under a cap of %d (at least twice)", tc.end, n, tc.want, wire.MaxTypes)
		}
	}
}

// TestParseApply: parseApply takes a VAPPLY payload apart, and refuses one
// whose framing does not hold — a short header, a delta count the payload
// cannot hold, a block length past the frame's end, bytes left over —
// without allocating, whatever its header claims.
func TestParseApply(t *testing.T) {
	var ins, del relation.Batch
	ins.Append(1, 2, 3)
	del.Append(4, 5, 6)
	good := appendDelta(appendDelta(sidPayload(9, 2), 0, &ins, nil), -1, &ins, &del)
	sid, n, deltas, ok := parseApply(good)
	if !ok || sid != 9 || n != 2 {
		t.Fatalf("parseApply = %d, %d, %v on a good payload", sid, n, ok)
	}
	for i, want := range []struct {
		rel      int
		ins, del int
	}{{0, 1, 0}, {-1, 1, 1}} {
		rel, blocks, rest, ok := nextDelta(deltas)
		gotIns, gotDel, err := relation.DecodeSignedTuples(nil, nil, blocks)
		if !ok || err != nil || rel != want.rel || len(gotIns) != want.ins || len(gotDel) != want.del {
			t.Fatalf("delta %d: rel %d, %d+%d rows (%v, %v), want rel %d, %d+%d", i, rel, len(gotIns), len(gotDel), ok, err, want.rel, want.ins, want.del)
		}
		deltas = rest
	}
	blocks := good[16:] // past the frame's header and the first delta's
	for _, bad := range []struct {
		name    string
		payload []byte
	}{
		{"short header", good[:7]},
		{"count overrun", append(sidPayload(9, 1<<31, 0, uint32(len(blocks))), blocks...)},
		{"length overrun", append(sidPayload(9, 1, 0, 1<<31), blocks...)},
		{"truncated", good[:len(good)-1]},
		{"trailing bytes", append(slices.Clone(good), 0)},
	} {
		if _, _, _, ok := parseApply(bad.payload); ok {
			t.Errorf("parseApply accepted a payload with a %s", bad.name)
		}
		if a := testing.AllocsPerRun(10, func() { parseApply(bad.payload) }); a != 0 {
			t.Errorf("parseApply of a payload with a %s: %v allocations, want 0", bad.name, a)
		}
	}
}

// TestControlFrameAllocs pins a steady-state DONE — WriteMsg on one end of
// a pipe, ReadFrame and DecodeMsg on the other — once its type has crossed:
// the stream's encoder and decoder are compiled, so only the value's own
// bytes remain. A fresh gob pair per frame costs about 196.
func TestControlFrameAllocs(t *testing.T) {
	w, r := pipePair(t)
	send := make(chan struct{})
	go func() {
		for range send {
			w.WriteMsg(fsDone, doneMsg{ID: 7, Rows: 1 << 20, WallNanos: 12345, PlanCacheHit: true})
		}
	}()
	defer close(send)
	var d doneMsg
	round := func() {
		send <- struct{}{}
		_, payload, err := r.ReadFrame()
		if err == nil {
			err = r.DecodeMsg(payload, &d)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	round() // the first frame carries the descriptor
	if n := testing.AllocsPerRun(100, round); n > 8 {
		t.Errorf("steady-state DONE: %v allocations, want at most 8", n)
	}
	if d.Rows != 1<<20 || !d.PlanCacheHit {
		t.Errorf("DONE decoded to %+v", d)
	}
}

// TestHelloVersionRefused sends a HELLO of the version before this one,
// then a SUBMIT, at each end. Both refuse on the HELLO with the version
// mismatch and read nothing after it — a version-3 peer would otherwise
// pass HELLO and fail only on its first VAPPLY, which it sends as gob.
func TestHelloVersionRefused(t *testing.T) {
	old := helloMsg{Version: protoVersion - 1, Role: roleClient}
	if err := checkHello(old, roleClient); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("checkHello(version %d) = %v, want a version mismatch", old.Version, err)
	}

	// The server hangs up without a HELLO of its own.
	_, addr := fuzzServer(t)
	c, err := wire.Dial(addr, helloTimeout, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMsg(wire.KindHello, old); err != nil {
		t.Fatal(err)
	}
	c.WriteMsg(fsSubmit, submitMsg{ID: 1, Shape: "left-linear", Strategy: "FP"})
	if kind, _, err := c.ReadFrame(); err == nil {
		t.Fatalf("server answered a version-%d HELLO with frame 0x%02x", old.Version, kind)
	}

	// The client fails Dial on a version-2 server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		sc := wire.NewConn(nc, maxFrame)
		defer sc.Close()
		sc.ReadFrame()
		sc.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion - 1, Role: roleServer})
		sc.WriteMsg(fsDone, doneMsg{ID: 1})
		sc.ReadFrame() // until the client hangs up
	}()
	cl, err := Dial(ln.Addr().String())
	if err == nil {
		cl.Close()
		t.Fatal("Dial accepted a server of the previous version")
	}
	if !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("Dial to a server of the previous version: %v, want a version mismatch", err)
	}
}
