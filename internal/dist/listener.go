package dist

import (
	"fmt"
	"net"
	"time"

	"multijoin/internal/wire"
)

// helloTimeout bounds how long a freshly accepted or dialed connection may
// take to complete its HELLO exchange — a child that never speaks (or a
// stray connection) is cut off instead of pinning the run.
const helloTimeout = 20 * time.Second

// Listener accepts the framed connections of one distributed run on a
// loopback TCP port and validates each connection's HELLO handshake
// (protocol version + run id) for the node.
type Listener struct {
	l     net.Listener
	runID string
}

// listenOn opens the run's listener on bind; empty means defaultBind.
func listenOn(bind, runID string) (*Listener, error) {
	if bind == "" {
		bind = defaultBind
	}
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", bind, err)
	}
	return &Listener{l: l, runID: runID}, nil
}

// Addr returns the listener's dialable address.
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Close stops accepting; blocked Accept calls fail.
func (ln *Listener) Close() error { return ln.l.Close() }

// Accept waits for the next connection. Its HELLO is left to handshake,
// which the node runs on a goroutine of the connection's own, so that a
// peer slow to speak holds up no other; an error means the listener is
// closed.
func (ln *Listener) Accept() (*wire.Conn, error) {
	nc, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return wire.NewConn(nc, maxFrame), nil
}

// handshake reads an accepted connection's first frame, which must be a
// HELLO matching this run's protocol version and run id, under
// helloTimeout. The node drops a connection whose HELLO is refused and
// goes on with the run: a stray or silent dialer fails nothing.
func (ln *Listener) handshake(c *wire.Conn) (helloMsg, error) {
	var h helloMsg
	if err := c.ReadMsg(wire.KindHello, &h, helloTimeout); err != nil {
		return h, fmt.Errorf("dist: handshake: %w", err)
	}
	return h, checkHello(h, ln.runID)
}

// dialHello opens a framed connection to addr and says h on it — the
// dialing side of the handshake Accept completes.
func dialHello(addr string, h helloMsg) (*wire.Conn, error) {
	c, err := wire.Dial(addr, helloTimeout, maxFrame)
	if err != nil {
		return nil, err
	}
	if err := c.WriteMsg(wire.KindHello, h); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
