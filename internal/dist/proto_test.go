package dist

import (
	"net"
	"strings"
	"testing"
	"time"

	"multijoin/internal/wire"
)

// TestControlTypes counts the gob types each direction of a control
// connection defines by sending every message it ever carries: dist's
// share of wire.MaxTypes, which must cover it at least twice over.
func TestControlTypes(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		msgs []any
		want int
	}{
		{"worker to coordinator", []any{helloMsg{}, doneMsg{OpWall: map[string]time.Duration{}}}, 3},
		{"coordinator to worker", []any{setupMsg{}}, 5},
	} {
		a, b := net.Pipe()
		w, r := wire.NewConn(a, maxFrame), wire.NewConn(b, maxFrame)
		go func() {
			for _, m := range tc.msgs {
				w.WriteMsg(ftDone, m)
			}
		}()
		for range tc.msgs {
			_, payload, err := r.ReadFrame()
			if err == nil {
				err = r.DecodeMsg(payload, nil)
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.dir, err)
			}
		}
		if n := r.Types(); n != tc.want || 2*n > wire.MaxTypes {
			t.Errorf("%s defines %d types, want %d under a cap of %d (at least twice)", tc.dir, n, tc.want, wire.MaxTypes)
		}
		w.Close()
		r.Close()
	}
}

// TestHelloVersionRefused dials a listener with a version-3 HELLO and a
// DONE after it: the handshake refuses on the HELLO with the version
// mismatch, before it reads the next frame — a version-3 worker would
// otherwise pass HELLO and then read a SETUP without the credit window it
// expects, which gob leaves at zero.
func TestHelloVersionRefused(t *testing.T) {
	ln, err := listenOn("127.0.0.1:0", "run")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := dialHello(ln.Addr(), helloMsg{Version: 3, RunID: "run", Kind: kindControl})
		if err != nil {
			return
		}
		defer c.Close()
		c.WriteMsg(ftDone, doneMsg{})
		c.ReadFrame() // until the listener's side hangs up
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := ln.handshake(c); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("handshake of a version-3 HELLO: %v, want a version mismatch", err)
	}
}
