package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"multijoin/internal/ivm"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
)

// QuerySpec names one query against the server's resident database.
type QuerySpec struct {
	Shape     string // wide-bushy, left-linear, ... ("" means wide-bushy)
	Relations int    // join fan-in; 0 means the whole database chain
	Strategy  string // SP, SE, RD, FP ("" means FP)
	Runtime   string // "", "parallel", "spill", ...
	Procs     int    // plan processor count; 0 means the engine default
}

// Done carries a completed query's server-side stats.
type Done struct {
	Rows         int64
	Wall         time.Duration
	QueueWait    time.Duration
	SpilledBytes int64
	MemReserved  int64
	PlanCacheHit bool
}

// ErrClientClosed reports an operation on a closed client.
var ErrClientClosed = errors.New("serve: client closed")

// Client is one multiplexed connection to a Server: any number of
// concurrent query streams and views share it. A single reader goroutine
// dispatches incoming frames to per-stream-id event channels sized so the
// reader never blocks on a slow consumer (the credit window bounds what
// the server may have outstanding).
type Client struct {
	c      *wire.Conn
	window int

	mu     sync.Mutex
	open   map[uint32]*pending // every stream id awaiting frames: queries and views
	nextID uint32
	err    error // first reader error, ErrClientClosed after Close

	// free holds the row buffers DATA frames are decoded into while no
	// stream holds them: at most the window+1 a stream can have in flight,
	// the window's frames and the batch its consumer holds.
	free chan []relation.Tuple

	readerDone chan struct{}
}

// event is one dispatched frame: a tuple batch, a view reply, the terminal
// Done, or the terminal error.
type event struct {
	tuples []relation.Tuple
	ok     *viewOKMsg
	res    *ApplyStats
	done   *Done
	err    error
}

// pending is the receiving end of one open stream id, a query's or a
// view's alike.
type pending struct {
	what string // "query" or "view", for the terminal error's text
	ev   chan event
	once sync.Once // guards the terminal event
}

// deliver dispatches one event; terminal events (done or err) may race
// between the read loop and Client.fail, so only the first lands.
func (p *pending) deliver(e event) {
	if e.done != nil || e.err != nil {
		p.once.Do(func() { p.ev <- e })
		return
	}
	p.ev <- e
}

// Dial connects to a server with the default credit window.
func Dial(addr string) (*Client, error) { return DialWindow(addr, DefaultWindow) }

// DialWindow connects with an explicit per-stream credit window (how many
// DATA frames the server may send ahead of the client's consumption).
func DialWindow(addr string, window int) (*Client, error) {
	if window <= 0 {
		window = DefaultWindow
	}
	c, err := wire.Dial(addr, helloTimeout, maxFrame)
	if err != nil {
		return nil, err
	}
	if err := c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleClient}); err != nil {
		c.Close()
		return nil, err
	}
	var hello helloMsg
	if err := c.ReadMsg(wire.KindHello, &hello, helloTimeout); err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: hello exchange: %w", err)
	}
	if err := checkHello(hello, roleServer); err != nil {
		c.Close()
		return nil, err
	}
	cl := &Client{c: c, window: window, open: make(map[uint32]*pending), readerDone: make(chan struct{}),
		free: make(chan []relation.Tuple, window+1)}
	go cl.readLoop()
	return cl, nil
}

// Close tears the connection down; every open stream's Recv fails.
func (cl *Client) Close() error {
	cl.fail(ErrClientClosed)
	err := cl.c.Close()
	<-cl.readerDone
	return err
}

// fail records the terminal error and delivers it to every open stream id.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	open := cl.open
	cl.open = make(map[uint32]*pending)
	cl.mu.Unlock()
	for _, p := range open {
		p.deliver(event{err: err})
	}
}

// register opens a fresh stream id whose event channel holds buf frames.
func (cl *Client) register(what string, buf int) (uint32, *pending, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.err != nil {
		return 0, nil, cl.err
	}
	cl.nextID++
	p := &pending{what: what, ev: make(chan event, buf)}
	cl.open[cl.nextID] = p
	return cl.nextID, p, nil
}

// lookup finds who awaits a frame's stream id, closing the id when the
// frame is its last.
func (cl *Client) lookup(sid uint32, last bool) *pending {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	p := cl.open[sid]
	if last {
		delete(cl.open, sid)
	}
	return p
}

// recycle puts a row buffer back on the free list, unless it is full.
func (cl *Client) recycle(rows []relation.Tuple) {
	select {
	case cl.free <- rows[:0]:
	default:
	}
}

// Submit starts one query stream.
func (cl *Client) Submit(spec QuerySpec) (*Stream, error) {
	if spec.Shape == "" {
		spec.Shape = "wide-bushy"
	}
	if spec.Strategy == "" {
		spec.Strategy = "FP"
	}
	// The server may have window unconsumed DATA frames in flight, plus
	// EOS and a terminal DONE/ERROR; size the event buffer so the read
	// loop never blocks dispatching to this stream.
	id, p, err := cl.register("query", cl.window+3)
	if err != nil {
		return nil, err
	}
	sub := submitMsg{
		ID: id, Shape: spec.Shape, Relations: spec.Relations,
		Strategy: spec.Strategy, Runtime: spec.Runtime, Procs: spec.Procs,
		Window: cl.window,
	}
	if err := cl.c.WriteMsg(fsSubmit, sub); err != nil {
		cl.lookup(id, true) // nothing was asked: close the id again
		return nil, err
	}
	return &Stream{cl: cl, id: id, pending: p}, nil
}

// readLoop is the connection's single reader: it dispatches every frame to
// its stream until the transport fails.
func (cl *Client) readLoop() {
	defer close(cl.readerDone)
	for {
		kind, payload, err := cl.c.ReadFrame()
		if err != nil {
			cl.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		switch kind {
		case wire.KindData:
			sid, block, err := wire.ParseData(payload)
			if err != nil {
				cl.fail(err)
				return
			}
			// The payload views the connection's reusable read buffer;
			// decoding into a row buffer of the free list is also the copy.
			var rows []relation.Tuple
			select {
			case rows = <-cl.free:
			default:
			}
			tuples, err := relation.TuplesFromBytes(rows, block)
			if err != nil {
				cl.fail(err)
				return
			}
			if p := cl.lookup(sid, false); p != nil {
				p.deliver(event{tuples: tuples})
			} else {
				cl.recycle(tuples)
			}
		case wire.KindEOS:
			// Informational: the terminal DONE follows immediately.
		case fsDone:
			var d doneMsg
			if err := cl.c.DecodeMsg(payload, &d); err != nil {
				cl.fail(err)
				return
			}
			if p := cl.lookup(d.ID, true); p != nil {
				p.deliver(event{done: &Done{
					Rows: d.Rows, Wall: time.Duration(d.WallNanos),
					QueueWait:    time.Duration(d.QueueWaitNanos),
					SpilledBytes: d.SpilledBytes, MemReserved: d.MemReserved,
					PlanCacheHit: d.PlanCacheHit,
				}})
			}
		case fsError:
			var e errMsg
			if err := cl.c.DecodeMsg(payload, &e); err != nil {
				cl.fail(err)
				return
			}
			if p := cl.lookup(e.ID, true); p != nil {
				p.deliver(event{err: fmt.Errorf("serve: %s failed: %s", p.what, e.Msg)})
			}
		case fsViewOK:
			var ok viewOKMsg
			if err := cl.c.DecodeMsg(payload, &ok); err != nil {
				cl.fail(err)
				return
			}
			if p := cl.lookup(ok.ID, false); p != nil {
				p.deliver(event{ok: &ok})
			}
		case fsViewResult:
			var vr viewResultMsg
			if err := cl.c.DecodeMsg(payload, &vr); err != nil {
				cl.fail(err)
				return
			}
			if p := cl.lookup(vr.ID, false); p != nil {
				p.deliver(event{res: &ApplyStats{
					Inserted: vr.Inserted, Deleted: vr.Deleted, Unmatched: vr.Unmatched,
					Changes: vr.Changes, Rows: vr.Rows, Wall: time.Duration(vr.WallNanos),
				}})
			}
		default:
			cl.fail(fmt.Errorf("serve: unexpected frame kind 0x%02x", kind))
			return
		}
	}
}

// Stream is one query's result stream on a client connection.
type Stream struct {
	cl *Client
	id uint32
	*pending
	owed uint32           // consumed window slots not yet granted back
	held []relation.Tuple // the batch the last Recv returned
}

// Recv returns the next result batch. It returns (tuples, nil, nil) for
// each DATA batch, then (nil, done, nil) when the query completes, or
// (nil, nil, err) on query failure, cancellation, or a lost connection.
// The returned tuples are valid until the next Recv on the stream, which
// gives their memory back to the client for a later batch to be decoded
// into. Consumed batches are granted back to the server in one CREDIT per
// half window (at least one batch). Recv is for one goroutine at a time.
func (st *Stream) Recv() ([]relation.Tuple, *Done, error) {
	if st.held != nil {
		st.cl.recycle(st.held)
		st.held = nil
	}
	e := <-st.ev
	switch {
	case e.err != nil:
		return nil, nil, e.err
	case e.done != nil:
		return nil, e.done, nil
	default:
		// Consumed one window slot. Granting half a window at a time keeps
		// the server streaming with the other half in flight; the last,
		// partial grant is never needed, since DONE takes no credit. A
		// write error surfaces on the next Recv via readLoop.
		if st.owed++; st.owed >= uint32(max(1, st.cl.window/2)) {
			st.cl.c.WriteCredit(st.id, st.owed)
			st.owed = 0
		}
		st.held = e.tuples
		return e.tuples, nil, nil
	}
}

// Cancel asks the server to abort the query. The stream still terminates
// through Recv — with the server's cancellation ERROR.
func (st *Stream) Cancel() error {
	return st.cl.c.WriteStreamID(fsCancel, st.id)
}

// Drain consumes the stream to its terminal event, returning the Done on
// success, the row count seen, and the terminal error otherwise.
func (st *Stream) Drain() (int64, *Done, error) {
	var n int64
	for {
		tuples, done, err := st.Recv()
		if err != nil {
			return n, nil, err
		}
		if done != nil {
			return n, done, nil
		}
		n += int64(len(tuples))
	}
}

// ViewSpec names one materialized view over the server's database. The
// strategy is always FP — a resident view is a pipelining network.
type ViewSpec struct {
	Shape     string // jointree shape name ("" means left-linear)
	Relations int    // join fan-in; 0 means every relation in the DB
	Procs     int    // plan processor count; 0 means the engine default
}

// ApplyStats is one maintenance round's server-side outcome.
type ApplyStats struct {
	Inserted  int64 // base tuples applied as inserts
	Deleted   int64 // base tuples applied as deletes
	Unmatched int64 // base deletes that matched nothing
	Changes   int64 // signed changes to the result multiset
	Rows      int64 // result cardinality after the round
	Wall      time.Duration
}

// ViewHandle is one materialized view held open on a client connection.
// Its operations are strictly request-reply — one outstanding at a time,
// serialized by an internal mutex.
type ViewHandle struct {
	cl *Client
	id uint32

	// Rows is the view's initial result cardinality; Cards the database's
	// per-relation cardinalities (chain order), the vocabulary for
	// synthesizing join-compatible deltas. Both are set by CreateView.
	Rows  int64
	Cards []int64

	opMu   sync.Mutex
	closed bool // set by Close; later ops fail locally, their replies having no handle
	// Apply's encoding scratch, reused across rounds under opMu.
	ins, del relation.Batch
	frame    []byte
	*pending
}

// CreateView materializes a view on the server and blocks until its initial
// population completes (the round-zero refresh).
func (cl *Client) CreateView(spec ViewSpec) (*ViewHandle, error) {
	// Request-reply: one reply outstanding, plus the terminal error of a
	// connection that fails meanwhile.
	id, p, err := cl.register("view", 2)
	if err != nil {
		return nil, err
	}
	vh := &ViewHandle{cl: cl, id: id, pending: p}
	msg := viewCreateMsg{ID: id, Shape: spec.Shape, Relations: spec.Relations, Procs: spec.Procs}
	if err := cl.c.WriteMsg(fsViewCreate, msg); err != nil {
		cl.lookup(id, true) // nothing was asked: close the id again
		return nil, err
	}
	e := <-vh.ev
	switch {
	case e.err != nil:
		return nil, e.err
	case e.ok == nil:
		return nil, fmt.Errorf("serve: unexpected view reply")
	}
	vh.Rows = e.ok.Rows
	vh.Cards = e.ok.Cards
	return vh, nil
}

// Apply ships one round of signed base-relation deltas and blocks until the
// server's view is exact again.
func (vh *ViewHandle) Apply(deltas ...ivm.Delta) (ApplyStats, error) {
	vh.opMu.Lock()
	defer vh.opMu.Unlock()
	if vh.closed {
		return ApplyStats{}, ivm.ErrViewClosed
	}
	vh.frame = binary.LittleEndian.AppendUint32(vh.frame[:0], vh.id)
	vh.frame = binary.LittleEndian.AppendUint32(vh.frame, uint32(len(deltas)))
	for _, d := range deltas {
		if int(int32(d.Rel)) != d.Rel {
			return ApplyStats{}, fmt.Errorf("serve: delta for base relation %d", d.Rel)
		}
		vh.ins.Reset()
		vh.del.Reset()
		vh.ins.AppendTuples(d.Insert)
		vh.del.AppendTuples(d.Delete)
		vh.frame = appendDelta(vh.frame, int32(d.Rel), &vh.ins, &vh.del)
	}
	if err := vh.cl.c.WriteFrame(fsViewApply, vh.frame); err != nil {
		return ApplyStats{}, err
	}
	e := <-vh.ev
	switch {
	case e.err != nil:
		return ApplyStats{}, e.err
	case e.res == nil:
		return ApplyStats{}, fmt.Errorf("serve: unexpected view reply")
	}
	return *e.res, nil
}

// Close tears the server-side view down, releasing its resident tables.
func (vh *ViewHandle) Close() error {
	vh.opMu.Lock()
	defer vh.opMu.Unlock()
	if vh.closed {
		return nil
	}
	vh.closed = true
	if err := vh.cl.c.WriteStreamID(fsViewClose, vh.id); err != nil {
		return err
	}
	e := <-vh.ev
	if e.err != nil {
		return e.err
	}
	return nil
}
