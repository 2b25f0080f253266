// Protocol round-trip audits for the serving layer: submit/stream/done
// against the sequential reference, concurrent multiplexed streams,
// cancel-mid-stream, malformed frames, and client disconnect mid-stream —
// each asserting the engine's shared memory meter drains to zero and no
// goroutines or descriptors leak.
package serve_test

import (
	"context"
	"encoding/binary"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/serve"
	"multijoin/internal/wire"
	"multijoin/internal/wisconsin"
)

// startServer opens an engine over a fresh chain database and serves it on
// an ephemeral loopback port. The cleanup asserts the server shut down
// with a drained meter.
func startServer(t *testing.T, relations, card int, engOpts ...core.EngineOption) (*serve.Server, string, *wisconsin.Database) {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(db, engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		if live := eng.MemoryLive(); live != 0 {
			t.Errorf("engine meter live = %d bytes after shutdown, want 0", live)
		}
	})
	return srv, addr, db
}

// TestServeRoundTrip submits queries over every strategy and both real
// runtimes on one multiplexed connection and checks each streamed result
// against the sequential reference.
func TestServeRoundTrip(t *testing.T) {
	baseGo := runtime.NumGoroutine()
	baseFD := atrest.OpenFDs()
	srv, addr, db := startServer(t, 4, 400)
	tree, err := jointree.BuildShape(jointree.WideBushy, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)

	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, strat := range []string{"SP", "SE", "RD", "FP"} {
		for _, rt := range []string{"parallel", "spill"} {
			st, err := cl.Submit(serve.QuerySpec{Strategy: strat, Runtime: rt})
			if err != nil {
				t.Fatalf("%s/%s submit: %v", strat, rt, err)
			}
			got := relation.New("result", 0)
			for {
				tuples, done, err := st.Recv()
				if err != nil {
					t.Fatalf("%s/%s recv: %v", strat, rt, err)
				}
				if done != nil {
					if done.Rows != int64(len(got.Tuples)) {
						t.Errorf("%s/%s done.Rows = %d, streamed %d", strat, rt, done.Rows, len(got.Tuples))
					}
					break
				}
				got.Tuples = append(got.Tuples, tuples...)
			}
			if diff := relation.DiffMultiset(got, want); diff != "" {
				t.Errorf("%s/%s result differs from reference: %s", strat, rt, diff)
			}
		}
	}
	cl.Close()

	// The engine's pool keeps the completed plans' hosts parked while it is
	// open; shut down, the server leaves nothing behind.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	if err := atrest.Goroutines(baseGo+4, 10*time.Second); err != nil {
		t.Errorf("goroutines after round trips and shutdown: %v", err)
	}
	if err := atrest.FDs(baseFD+4, 10*time.Second); err != nil {
		t.Errorf("fds after round trips and shutdown: %v", err)
	}
}

// relayFrames starts a loopback proxy for one connection to addr that
// forwards every frame as it is, counting the DATA frames the server sends
// and the CREDIT frames the client sends. wait returns both counts once the
// client has hung up and both directions have stopped.
func relayFrames(t *testing.T, addr string) (proxy string, wait func() (data, credits int64)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var nData, nCredit atomic.Int64
	var wg sync.WaitGroup
	relay := func(dst, src net.Conn, kind byte, n *atomic.Int64) {
		defer wg.Done()
		defer dst.Close()
		in, out := wire.NewConn(src, 1<<26), wire.NewConn(dst, 1<<26)
		for {
			k, payload, err := in.ReadFrame()
			if err != nil {
				return
			}
			if k == kind {
				n.Add(1)
			}
			if out.WriteFrame(k, payload) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ln.Close()
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", addr)
		if err != nil {
			client.Close()
			return
		}
		wg.Add(2)
		go relay(server, client, wire.KindCredit, &nCredit)
		go relay(client, server, wire.KindData, &nData)
	}()
	return ln.Addr().String(), func() (int64, int64) {
		wg.Wait()
		return nData.Load(), nCredit.Load()
	}
}

// TestStreamGrantsHalfWindow: a client grants consumed batches back in one
// CREDIT per half window (at least one batch), so a stream of f DATA frames
// under window w costs f / max(1, w/2) CREDIT frames, and a stream larger
// than its window still completes.
func TestStreamGrantsHalfWindow(t *testing.T) {
	_, addr, _ := startServer(t, 3, 4000)
	for _, w := range []int{1, 2, 8} {
		proxy, wait := relayFrames(t, addr)
		cl, err := serve.DialWindow(proxy, w)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Submit(serve.QuerySpec{Strategy: "RD", Runtime: "parallel"})
		if err != nil {
			t.Fatal(err)
		}
		rows, done, err := st.Drain()
		cl.Close()
		data, credits := wait()
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if done.Rows != rows || data <= int64(w) {
			t.Errorf("window %d: %d rows streamed of %d, in %d DATA frames; want all, in more frames than the window", w, rows, done.Rows, data)
		}
		if want := data / int64(max(1, w/2)); credits != want {
			t.Errorf("window %d: %d CREDIT frames for %d DATA frames, want %d", w, credits, data, want)
		}
	}
}

// TestServeConcurrentStreams runs many interleaved streams on a handful of
// shared connections — the multiplexing path — and verifies every result.
func TestServeConcurrentStreams(t *testing.T) {
	_, addr, db := startServer(t, 4, 300, core.WithMaxConcurrent(4))
	tree, err := jointree.BuildShape(jointree.WideBushy, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(core.Reference(db, tree).Tuples))

	const conns, perConn = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	for c := 0; c < conns; c++ {
		cl, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for q := 0; q < perConn; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				rt := []string{"parallel", "spill"}[q%2]
				st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: rt})
				if err != nil {
					errs <- err
					return
				}
				n, _, err := st.Drain()
				if err != nil {
					errs <- err
					return
				}
				if n != want {
					errs <- &rowCountErr{got: n, want: want}
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type rowCountErr struct{ got, want int64 }

func (e *rowCountErr) Error() string { return "row count mismatch" }

// TestServeCancelMidStream cancels queries after their first batch and
// requires the server to terminate each stream with the cancellation
// error while the shared meter drains (the Cleanup assertion).
func TestServeCancelMidStream(t *testing.T) {
	_, addr, _ := startServer(t, 6, 2000, core.WithEngineMemoryBudget(1<<20))
	cl, err := serve.DialWindow(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 4; i++ {
		st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "spill"})
		if err != nil {
			t.Fatal(err)
		}
		// Take the first batch, then abort.
		if _, done, err := st.Recv(); err != nil || done != nil {
			t.Fatalf("first recv: done=%v err=%v", done, err)
		}
		if err := st.Cancel(); err != nil {
			t.Fatal(err)
		}
		for {
			_, done, err := st.Recv()
			if done != nil {
				// The query can win the race and finish before the cancel
				// lands; that is a legal outcome.
				break
			}
			if err != nil {
				if !strings.Contains(err.Error(), "cancel") {
					t.Fatalf("cancelled stream error = %v, want a cancellation", err)
				}
				break
			}
		}
	}
}

// TestServeMalformedFrames sends protocol garbage — an unknown frame kind,
// a corrupt gob payload, length prefixes over the frame cap — and requires the
// server to tear the connection down without taking the engine with it:
// a healthy client still gets full service afterwards.
func TestServeMalformedFrames(t *testing.T) {
	_, addr, _ := startServer(t, 4, 200)

	hello := func(t *testing.T, c *wire.Conn) {
		t.Helper()
		if err := c.WriteMsg(wire.KindHello, struct {
			Version int
			Role    string
		}{4, "client"}); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := c.ReadFrame(); err != nil || kind != wire.KindHello {
			t.Fatalf("hello reply: kind=0x%02x err=%v", kind, err)
		}
	}

	t.Run("unknown frame kind", func(t *testing.T) {
		c, err := wire.Dial(addr, 5*time.Second, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello(t, c)
		if err := c.WriteStreamID(0x7f, 1); err != nil {
			t.Fatal(err)
		}
		// Server must hang up on the violation.
		if _, _, err := c.ReadFrame(); err == nil {
			t.Fatal("server kept the connection after an unknown frame kind")
		}
	})

	t.Run("corrupt submit payload", func(t *testing.T) {
		c, err := wire.Dial(addr, 5*time.Second, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello(t, c)
		if err := c.WriteStreamID(0x20, 0xdeadbeef); err != nil { // 4 junk bytes where a gob submitMsg belongs
			t.Fatal(err)
		}
		if _, _, err := c.ReadFrame(); err == nil {
			t.Fatal("server kept the connection after a corrupt SUBMIT")
		}
	})

	// A length prefix over the cap must drop the connection at once, before
	// the server allocates or waits for the bytes it announces: 1<<30 is
	// over every cap, 1<<27 lies between serve's own (16 MiB) and the
	// 256 MiB of dist, whose codec the front door used to borrow.
	for name, length := range map[string]uint32{
		"implausible length prefix":      1 << 30,
		"length prefix between the caps": 1 << 27,
	} {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], length)
			if _, err := nc.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			nc.SetReadDeadline(time.Now().Add(5 * time.Second)) // under helloTimeout: the cap, not the deadline, must hang up
			if _, err := nc.Read(buf); err == nil || os.IsTimeout(err) {
				t.Fatalf("server kept the connection after a %d-byte length prefix: %v", length, err)
			}
		})
	}

	// The engine must still serve a healthy client.
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "parallel"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Drain(); err != nil {
		t.Fatalf("healthy client after garbage peers: %v", err)
	}
}

// TestServeStreamIDCollision opens a view on a stream id and then submits a
// query on the same id. Query and view ids live in one registry, so the
// SUBMIT is refused with the duplicate-id ERROR and the view keeps the id:
// accepted, two conversations would answer on one stream id. Once the view
// is closed the id is free again.
func TestServeStreamIDCollision(t *testing.T) {
	_, addr, db := startServer(t, 3, 200)
	c, err := wire.Dial(addr, 5*time.Second, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		submit, done, errKind, vcreate, vok, vclose = 0x20, 0x22, 0x23, 0x24, 0x25, 0x28
		sid                                         = 7
	)
	// expect reads the next frame, requires its kind and returns the Msg
	// field of an ERROR.
	expect := func(step string, want byte) string {
		t.Helper()
		kind, payload, err := c.ReadFrame()
		if err != nil || kind != want {
			t.Fatalf("%s: frame kind 0x%02x, err %v; want kind 0x%02x", step, kind, err, want)
		}
		var reply struct {
			ID  uint32
			Msg string
		}
		if err := c.DecodeMsg(payload, &reply); err != nil || reply.ID != sid {
			t.Fatalf("%s: reply for stream %d, err %v; want stream %d", step, reply.ID, err, sid)
		}
		return reply.Msg
	}
	type hello struct {
		Version int
		Role    string
	}
	type create struct{ ID uint32 }
	type query struct {
		ID                uint32
		Shape, Strategy   string
		Relations, Window int
	}
	if err := c.WriteMsg(wire.KindHello, hello{4, "client"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(wire.KindHello, nil, 5*time.Second); err != nil {
		t.Fatalf("hello reply: %v", err)
	}

	if err := c.WriteMsg(vcreate, create{ID: sid}); err != nil {
		t.Fatal(err)
	}
	expect("VCREATE", vok)
	if err := c.WriteMsg(submit, query{ID: sid, Shape: "left-linear", Strategy: "FP"}); err != nil {
		t.Fatal(err)
	}
	if msg := expect("SUBMIT on the view's id", errKind); !strings.Contains(msg, "duplicate stream id") {
		t.Fatalf("SUBMIT on the view's id: ERROR %q, want the duplicate stream id refusal", msg)
	}
	// The view still owns the id: VCLOSE finds it and reports its rows.
	if err := c.WriteStreamID(vclose, sid); err != nil {
		t.Fatal(err)
	}
	expect("VCLOSE", done)
	// And the closed view's id serves a query.
	if err := c.WriteMsg(submit, query{ID: sid, Shape: "left-linear", Strategy: "FP", Window: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for {
		kind, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind == wire.KindData || kind == wire.KindEOS {
			continue
		}
		if kind != done {
			t.Fatalf("SUBMIT on the freed id: frame kind 0x%02x", kind)
		}
		var reply struct{ Rows int64 }
		if err := c.DecodeMsg(payload, &reply); err != nil || reply.Rows != int64(db.Cardinality()) {
			t.Fatalf("SUBMIT on the freed id: %d rows, err %v; want %d", reply.Rows, err, db.Cardinality())
		}
		return
	}
}

// TestServeOversizedProcs asks for a plan over a billion processors in a
// SUBMIT and in a VCREATE. Planning that costs the server seconds and
// gigabytes, so both must be refused at the door: an ERROR at once, nothing
// reserved, nothing planned or cached — and the same connection still
// serves a reasonable request afterwards.
func TestServeOversizedProcs(t *testing.T) {
	srv, addr, db := startServer(t, 4, 500)
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng := srv.Engine()
	_, missesBefore := eng.PlanCacheStats()
	start := time.Now()

	st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "parallel", Procs: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Drain(); err == nil || !strings.Contains(err.Error(), "processors requested") {
		t.Fatalf("oversized SUBMIT: err = %v, want the processor limit", err)
	}
	if _, err := cl.CreateView(serve.ViewSpec{Procs: 1 << 30}); err == nil || !strings.Contains(err.Error(), "processors requested") {
		t.Fatalf("oversized VCREATE: err = %v, want the processor limit", err)
	}

	if d := time.Since(start); d > time.Second {
		t.Errorf("refusals took %v, want them immediate", d)
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d bytes after the refusals, want 0", live)
	}
	if _, misses := eng.PlanCacheStats(); misses != missesBefore {
		t.Errorf("plan cache misses %d -> %d: a refused request was planned", missesBefore, misses)
	}

	st, err = cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "parallel", Procs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rows, _, err := st.Drain(); err != nil || rows != int64(db.Cardinality()) {
		t.Fatalf("100 processors after the refusals: %d rows, err %v; want %d rows", rows, err, db.Cardinality())
	}
}

// TestServeClientDisconnectMidStream drops the TCP connection while
// results are streaming (with a tiny credit window so the server is
// blocked mid-stream) and requires the server to cancel the orphaned
// queries and release their memory — the Cleanup asserts meter live = 0 —
// without leaking the per-query goroutines.
func TestServeClientDisconnectMidStream(t *testing.T) {
	baseGo := runtime.NumGoroutine()
	baseFD := atrest.OpenFDs()
	_, addr, _ := startServer(t, 6, 2000, core.WithEngineMemoryBudget(1<<20))

	for i := 0; i < 3; i++ {
		cl, err := serve.DialWindow(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "spill"})
		if err != nil {
			t.Fatal(err)
		}
		// One batch proves the stream is live, then the socket dies with
		// the query mid-flight and the server blocked on credit.
		if _, done, err := st.Recv(); err != nil || done != nil {
			t.Fatalf("first recv: done=%v err=%v", done, err)
		}
		cl.Close()
	}

	if err := atrest.Goroutines(baseGo+4, 15*time.Second); err != nil {
		t.Errorf("goroutines after client disconnects: %v", err)
	}
	if err := atrest.FDs(baseFD+4, 15*time.Second); err != nil {
		t.Errorf("fds after client disconnects: %v", err)
	}
}

// TestServeShutdownDrainsStreams verifies graceful shutdown: a Shutdown
// issued while clients are slowly consuming must let every stream finish
// (no truncation) before the engine closes.
func TestServeShutdownDrainsStreams(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 4, Cardinality: 400, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(core.Reference(db, tree).Tuples))

	const nStreams = 3
	var wg sync.WaitGroup
	counts := make([]int64, nStreams)
	errs := make([]error, nStreams)
	started := make(chan struct{}, nStreams)
	for i := 0; i < nStreams; i++ {
		cl, err := serve.DialWindow(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.Submit(serve.QuerySpec{Strategy: "FP", Runtime: "parallel"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, st *serve.Stream) {
			defer wg.Done()
			first := true
			for {
				tuples, done, err := st.Recv()
				if err != nil {
					errs[i] = err
					return
				}
				if done != nil {
					return
				}
				counts[i] += int64(len(tuples))
				if first {
					first = false
					started <- struct{}{}
				}
				time.Sleep(5 * time.Millisecond) // slow consumer
			}
		}(i, st)
	}
	for i := 0; i < nStreams; i++ {
		<-started
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()
	for i := 0; i < nStreams; i++ {
		if errs[i] != nil {
			t.Errorf("stream %d: %v", i, errs[i])
		}
		if counts[i] != want {
			t.Errorf("stream %d truncated by shutdown: %d rows, want %d", i, counts[i], want)
		}
	}
	if live := eng.MemoryLive(); live != 0 {
		t.Errorf("engine meter live = %d after shutdown, want 0", live)
	}

	// A submit after shutdown must be refused.
	if _, err := serve.Dial(addr); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
}
