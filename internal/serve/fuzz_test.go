package serve

import (
	"encoding/binary"
	"testing"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/wire"
	"multijoin/internal/wisconsin"
)

// FuzzServeFrames plays a script of arbitrary frames at a server connection
// that has completed a valid HELLO — the gob control payloads and the frame
// sequencing that FuzzReadFrame, which stops at the frame boundary, does not
// reach. A script is a run of (kind byte, payload length uint16 LE, payload)
// records; a record whose length overruns the input carries what is left.
//
// The server must not panic; every SUBMIT, VCREATE, VAPPLY and VCLOSE must
// be answered (DONE, ERROR, VOK or VRESULT) unless the server hangs up
// instead (CREDIT and CANCEL have no reply of their own); and once the
// client is gone the connection is torn down with the engine's meter at
// zero, which a view left open would hold above it.
//
// The seed corpus (testdata/fuzz/FuzzServeFrames) holds valid and truncated
// SUBMIT, VCREATE, VAPPLY and VCLOSE payloads, CREDIT and CANCEL for stream
// ids nobody opened, duplicate ids (a SUBMIT on the id of an open view among
// them), a processor count of 1<<30 in both request kinds, and a VAPPLY
// naming relation -1.
func FuzzServeFrames(f *testing.F) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 3, Cardinality: 200, Seed: 1995})
	if err != nil {
		f.Fatal(err)
	}
	eng, err := core.Open(db)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(eng, Config{BatchTuples: 64})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, script []byte) {
		c, err := wire.Dial(addr, helloTimeout, maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleClient}); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadMsg(wire.KindHello, nil, helloTimeout); err != nil {
			t.Fatal(err)
		}

		// The reader grants a credit per DATA frame, so that a stream is
		// never the reason a reply is late, and reports each closing reply;
		// it ends, closing answered, when the server hangs up.
		answered := make(chan struct{}, len(script))
		go func() {
			defer close(answered)
			for {
				kind, payload, err := c.ReadFrame()
				if err != nil {
					return
				}
				switch kind {
				case wire.KindData:
					if sid, _, err := wire.ParseData(payload); err == nil {
						c.WriteCredit(sid, 1)
					}
				case fsDone, fsError, fsViewOK, fsViewResult:
					answered <- struct{}{}
				}
			}
		}()

		owed := 0
		for len(script) >= 3 {
			kind, n := script[0], int(binary.LittleEndian.Uint16(script[1:]))
			payload := script[3:]
			payload = payload[:min(n, len(payload))]
			script = script[3+len(payload):]
			if c.WriteFrame(kind, payload) != nil {
				break // the server hung up on an earlier frame
			}
			switch kind {
			case fsSubmit, fsViewCreate, fsViewApply, fsViewClose:
				owed++
			}
		}
		deadline := time.After(30 * time.Second)
		for hungUp := false; owed > 0 && !hungUp; owed-- {
			select {
			case _, ok := <-answered:
				hungUp = !ok
			case <-deadline:
				t.Fatalf("%d requests neither answered nor hung up on", owed)
			}
		}

		c.Close()
		settled := func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.conns) == 0
		}
		for limit := time.Now().Add(30 * time.Second); !settled(); time.Sleep(time.Millisecond) {
			if time.Now().After(limit) {
				t.Fatal("server connection still up 30s after the client closed")
			}
		}
		if live := eng.MemoryLive(); live != 0 {
			t.Fatalf("engine meter live = %d bytes with no connection left, want 0", live)
		}
	})
}
