package serve

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
	"multijoin/internal/wisconsin"
)

// stubServer serves one connection with the server's side of the protocol
// and none of its work, so that what a test counts on the client is the
// client's: each SUBMIT is answered with Relations DATA frames of one
// 256-tuple block under the stream's credit window, then EOS and DONE;
// each VCREATE with VOK; each VAPPLY, once parseApply has checked it, with
// a VRESULT. It allocates the same for every query and round whatever
// their size. It returns the address to dial.
func stubServer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(nc, maxFrame)
		defer c.Close()
		if c.ReadMsg(wire.KindHello, nil, helloTimeout) != nil ||
			c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleServer}) != nil {
			return
		}
		type job struct {
			sub submitMsg
			win *wire.Window
		}
		jobs := make(chan job)
		defer close(jobs)
		go func() {
			block := relation.NewBatch(256)
			for i := range 256 {
				block.Append(int64(i), int64(i), uint64(i))
			}
			for j := range jobs {
				for range j.sub.Relations {
					if j.win.Take(context.Background()) != nil || c.WriteBatch(j.sub.ID, block) != nil {
						return
					}
				}
				c.WriteStreamID(wire.KindEOS, j.sub.ID)
				c.WriteMsg(fsDone, doneMsg{ID: j.sub.ID, Rows: int64(j.sub.Relations * block.Len())})
			}
		}()
		var cur job
		for {
			kind, payload, err := c.ReadFrame()
			if err != nil {
				return
			}
			switch kind {
			case fsSubmit:
				var sub submitMsg
				if c.DecodeMsg(payload, &sub) != nil {
					return
				}
				cur = job{sub, wire.NewWindow(sub.Window)}
				jobs <- cur
			case wire.KindCredit:
				if sid, n, err := wire.ParseCredit(payload); err == nil && sid == cur.sub.ID {
					cur.win.Grant(n)
				}
			case fsViewCreate:
				var vc viewCreateMsg
				if c.DecodeMsg(payload, &vc) != nil {
					return
				}
				c.WriteMsg(fsViewOK, viewOKMsg{ID: vc.ID})
			case fsViewApply:
				sid, n, _, ok := parseApply(payload)
				if !ok {
					return
				}
				c.WriteMsg(fsViewResult, viewResultMsg{ID: sid, Changes: int64(n)})
			}
		}
	}()
	return ln.Addr().String()
}

// TestRecvAllocFree: on a warm connection, a query's client side — Submit,
// every Recv, DONE — allocates the same for a result of 1 DATA frame as for
// one of 20: each frame is decoded into a row buffer the stream gave back,
// not into fresh memory. The warm-up query holds the window full before it
// drains, so that the free list holds what the window can have in flight.
func TestRecvAllocFree(t *testing.T) {
	const window = 8
	cl, err := DialWindow(stubServer(t), window)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	query := func(frames int, full bool) {
		st, err := cl.Submit(QuerySpec{Relations: frames})
		if err != nil {
			t.Fatal(err)
		}
		for full && len(st.ev) < window {
			time.Sleep(time.Millisecond)
		}
		n, done, err := st.Drain()
		if err != nil || n != int64(256*frames) || done.Rows != n {
			t.Fatalf("%d frames: %d rows (%v), want %d", frames, n, err, 256*frames)
		}
	}
	query(20, true)
	if len(cl.free) < window {
		t.Fatalf("%d row buffers idle after a warm-up that held the window full, want at least %d", len(cl.free), window)
	}
	one := testing.AllocsPerRun(50, func() { query(1, false) })
	twenty := testing.AllocsPerRun(50, func() { query(20, false) })
	if exactAllocs && one != twenty {
		t.Errorf("a query allocates %v times for 1 DATA frame and %v for 20, want the same", one, twenty)
	}
}

// TestRecvRecycles runs two streams at once on one client, each several
// queries long, so that the connection's reader decodes into buffers the
// two consumers give back while they still read theirs: every result must
// be the reference's, and once both streams are done their buffers are
// back on the free list. Run under the race detector, it checks the
// hand-off between the reader and Recv.
func TestRecvRecycles(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 3, Cardinality: 3000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.LeftLinear, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	eng, err := core.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, Config{})
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const window = 2
	cl, err := DialWindow(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for _, strat := range []string{"FP", "RD"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				st, err := cl.Submit(QuerySpec{Shape: "left-linear", Strategy: strat, Runtime: "parallel"})
				if err != nil {
					t.Error(err)
					return
				}
				got := relation.New("got", want.TupleBytes)
				for {
					tuples, done, err := st.Recv()
					if err != nil {
						t.Error(err)
						return
					}
					if done != nil {
						break
					}
					for _, tu := range tuples {
						got.Append(tu)
					}
				}
				if diff := relation.DiffMultiset(got, want); diff != "" {
					t.Errorf("%s: result differs from the reference: %s", strat, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(cl.free) == 0 {
		t.Error("no row buffer was given back")
	}
}

// TestViewApplyAllocs: a warm VAPPLY round allocates no more for 640 delta
// tuples per relation than for 64, on either end. The client encodes the
// round into its scratch and sends it raw (against stubServer, which
// answers without decoding); the server parses the frame in place, decodes
// into the connection's round buffers and applies them (driven by a bare
// connection that sends a ready frame and reads the VRESULT). Each round
// inserts and deletes the same tuples, leaving the view as it found it.
func TestViewApplyAllocs(t *testing.T) {
	const relations = 3
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: 1000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	deltas := func(n int) []ivm.Delta {
		var ds []ivm.Delta
		for rel := range relations {
			ins := make([]relation.Tuple, n)
			for i := range ins {
				ins[i] = db.Relation(rel).Tuples[i*31%db.Card(rel)]
				ins[i].Check = ins[i].Check*31 + 1
			}
			ds = append(ds, ivm.Delta{Rel: rel, Insert: ins, Delete: ins})
		}
		return ds
	}
	small, large := deltas(64), deltas(640)
	measure := func(round func(ds []ivm.Delta)) (float64, float64) {
		for range 20 { // until the scratch, the round buffers and the view's tables settle
			round(small)
			round(large)
		}
		return testing.AllocsPerRun(50, func() { round(small) }), testing.AllocsPerRun(50, func() { round(large) })
	}
	check := func(end string, small, large, bound float64) {
		t.Helper()
		if exactAllocs && (large > small || large > bound) {
			t.Errorf("%s end: a round allocates %v times for 64 tuples per relation and %v for 640, want at most %v for either", end, small, large, bound)
		}
	}

	t.Run("client", func(t *testing.T) {
		cl, err := Dial(stubServer(t))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		vh, err := cl.CreateView(ViewSpec{})
		if err != nil {
			t.Fatal(err)
		}
		small, large := measure(func(ds []ivm.Delta) {
			if st, err := vh.Apply(ds...); err != nil || st.Changes != relations {
				t.Fatalf("round: %+v, %v", st, err)
			}
		})
		check("client", small, large, clientApplyAllocs)
	})

	t.Run("server", func(t *testing.T) {
		const sid = 1
		c, ok := rawView(t, db, sid)
		frames := map[int][]byte{}
		for _, ds := range [][]ivm.Delta{small, large} {
			p := sidPayload(sid, uint32(len(ds)))
			for _, d := range ds {
				var ins relation.Batch
				ins.AppendTuples(d.Insert)
				p = appendDelta(p, int32(d.Rel), &ins, &ins)
			}
			frames[len(ds[0].Insert)] = p
		}
		var res viewResultMsg
		small, large := measure(func(ds []ivm.Delta) {
			n := len(ds[0].Insert)
			err := c.WriteFrame(fsViewApply, frames[n])
			if err == nil {
				err = c.ReadMsg(fsViewResult, &res, 0)
			}
			if err != nil || res.Inserted != int64(relations*n) || res.Rows != ok.Rows {
				t.Fatalf("round: %+v, %v", res, err)
			}
		})
		check("server", small, large, serverApplyAllocs)
	})
}

// rawView serves db and opens a view on stream sid over a bare connection
// that has sent its HELLO, returning the connection and the VOK. Both are
// released when the test ends.
func rawView(t *testing.T, db *wisconsin.Database, sid uint32) (*wire.Conn, viewOKMsg) {
	t.Helper()
	eng, err := core.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, Config{})
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr, helloTimeout, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleClient}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(wire.KindHello, nil, helloTimeout); err != nil {
		t.Fatal(err)
	}
	var ok viewOKMsg
	if err := c.WriteMsg(fsViewCreate, viewCreateMsg{ID: sid, Shape: "left-linear"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(fsViewOK, &ok, 0); err != nil {
		t.Fatal(err)
	}
	return c, ok
}

// TestViewApplyManyDeltas: a VAPPLY round of many one-tuple deltas costs
// the server memory linear in its frame. Each delta is decoded into the
// connection's round buffers before the view checks a single relation, so
// a buffer that grew by exactly each delta's rows would be copied whole
// per delta, and every earlier array would stay live with the delta that
// views it: sum(i*24) bytes, 50 MB at this frame's 2 048 deltas of 84 KB
// (and terabytes at the 420 000 a 16 MiB frame holds). The round names a
// relation the view does not have, so the view refuses it whole and what
// the server allocates is the frame's read and decode.
func TestViewApplyManyDeltas(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 3, Cardinality: 100, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	const sid, deltas = 1, 2048
	c, _ := rawView(t, db, sid)
	var one relation.Batch
	one.AppendTuples(db.Relation(0).Tuples[:1])
	frame := sidPayload(sid, deltas)
	for range deltas {
		frame = appendDelta(frame, 99, &one, nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var em errMsg
	if err := c.WriteFrame(fsViewApply, frame); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(fsError, &em, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(frame)); got > bound {
		t.Errorf("a round of %d one-tuple deltas (%d bytes) allocated %d bytes, want at most %d", deltas, len(frame), got, bound)
	}
	if !strings.Contains(em.Msg, "unknown base relation 99") {
		t.Errorf("round answered %q, want the view's refusal of relation 99", em.Msg)
	}
}

// The allocations of a warm VAPPLY round on each end (TestViewApplyAllocs),
// measured plus 5 %: on the client the round's VRESULT (its frame read, the
// gob decode and the stats handed to Apply); on the server the VRESULT it
// writes. Decoding a round by gob cost 74 allocations, both ends together.
const clientApplyAllocs, serverApplyAllocs = 4, 2

// TestSharedTree: every request for one shape over one fan-in gets the one
// tree the server built for it, and running on it leaves it as built. Two
// connections run SP, SE, RD and FP queries and a view round on the
// left-linear tree over all three relations at once (under the race
// detector in `make test`); then the tree still deep-equals a fresh one and
// buildQuery still hands out the same pointer.
func TestSharedTree(t *testing.T) {
	srv, addr := fuzzServer(t)
	sub := submitMsg{Shape: "left-linear", Strategy: "FP"}
	q, _, err := srv.buildQuery(sub)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(core.Reference(srv.eng.DB(), q.Tree).Tuples))
	var wg sync.WaitGroup
	for range 2 {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, strat := range []string{"SP", "SE", "RD", "FP"} {
				st, err := cl.Submit(QuerySpec{Shape: "left-linear", Strategy: strat, Runtime: "parallel"})
				if err != nil {
					t.Error(err)
					return
				}
				if n, _, err := st.Drain(); err != nil || n != want {
					t.Errorf("%s: %d rows (%v), want %d", strat, n, err, want)
				}
			}
			vh, err := cl.CreateView(ViewSpec{})
			if err != nil {
				t.Error(err)
				return
			}
			defer vh.Close()
			ins := relation.Tuple{Unique1: 1 << 32, Unique2: 7, Check: 42}
			if st, err := vh.Apply(ivm.Delta{Rel: 0, Insert: []relation.Tuple{ins}, Delete: []relation.Tuple{ins}}); err != nil || st.Rows != vh.Rows {
				t.Errorf("view round: %+v, %v", st, err)
			}
		}()
	}
	wg.Wait()
	fresh, err := jointree.BuildShape(jointree.LeftLinear, srv.eng.DB().NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Tree, fresh) {
		t.Error("the shared tree changed under the runs")
	}
	if again, _, err := srv.buildQuery(sub); err != nil || again.Tree != q.Tree {
		t.Errorf("buildQuery gave another tree (%v)", err)
	}
}
