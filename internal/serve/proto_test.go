package serve

import (
	"net"
	"strings"
	"testing"

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
// by sending every message it ever sends: 6 each way, which wire.MaxTypes
// must cover at least twice over.
func TestControlTypes(t *testing.T) {
	for _, tc := range []struct {
		end  string
		msgs []any
	}{
		{roleClient, []any{helloMsg{}, submitMsg{}, viewCreateMsg{}, viewApplyMsg{}}},
		{roleServer, []any{helloMsg{}, doneMsg{}, errMsg{}, viewOKMsg{}, viewResultMsg{}}},
	} {
		if n := definedTypes(t, tc.msgs...); n != 6 || 2*n > wire.MaxTypes {
			t.Errorf("%s defines %d types, want 6 under a cap of %d (at least twice)", tc.end, n, wire.MaxTypes)
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

// TestHelloVersionRefused sends a version-2 HELLO, then a SUBMIT, at each
// end. Both refuse on the HELLO with the version mismatch and read nothing
// after it — a version-2 peer would otherwise pass HELLO and fail only on
// its second frame, with gob's duplicate type.
func TestHelloVersionRefused(t *testing.T) {
	old := helloMsg{Version: 2, Role: roleClient}
	if err := checkHello(old, roleClient); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("checkHello(version 2) = %v, want a version mismatch", err)
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
		t.Fatalf("server answered a version-2 HELLO with frame 0x%02x", kind)
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
		sc.WriteMsg(wire.KindHello, helloMsg{Version: 2, Role: roleServer})
		sc.WriteMsg(fsDone, doneMsg{ID: 1})
		sc.ReadFrame() // until the client hangs up
	}()
	cl, err := Dial(ln.Addr().String())
	if err == nil {
		cl.Close()
		t.Fatal("Dial accepted a version-2 server")
	}
	if !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("Dial to a version-2 server: %v, want a version mismatch", err)
	}
}
