package serve

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wire"
)

// Config parameterizes a Server. It is empty: a DATA frame is one of the
// runtime's own batches, so the result stream has nothing to configure.
type Config struct{}

// Server exposes one long-lived Engine over TCP. Each accepted connection
// gets a reader goroutine that demultiplexes SUBMIT/CREDIT/CANCEL frames;
// each submitted query gets its own goroutine that writes every batch the
// runtime pushes into the engine's Rows cursor as one credit-windowed DATA
// frame. The server takes ownership of the engine: Shutdown drains
// in-flight cursors through the engine's own graceful-drain path before
// closing it.
type Server struct {
	eng *core.Engine

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop + connection handlers

	trees sync.Map // [2]int{shape, k} -> *jointree.Node: built join trees (tree)
}

// NewServer wraps an open engine. The server owns eng from here on:
// Server.Shutdown (or Close) closes it.
func NewServer(eng *core.Engine, cfg Config) *Server {
	return &Server{eng: eng, conns: make(map[*srvConn]struct{})}
}

// Start binds addr (host:port; port 0 picks an ephemeral port), spawns the
// accept loop, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", core.ErrEngineClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		sc := &srvConn{srv: s, c: wire.NewConn(nc, maxFrame), streams: make(map[uint32]*srvStream)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			sc.c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.serve()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
	}
}

// Shutdown stops the server gracefully: no new connections or queries are
// admitted, then the engine drains — in-flight Rows cursors keep streaming
// to their clients until they settle or ctx expires, at which point the
// stragglers are force-closed — and finally every connection is torn down.
// It returns the engine's shutdown error (nil on a clean drain).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.eng.Shutdown(ctx)
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Graceful phase: the engine waits for cursors to settle; the per-query
	// goroutines keep pushing frames to their clients in the meantime.
	err := s.eng.Shutdown(ctx)
	// Flush phase: a settled cursor's stream may still have its final
	// batches, EOS and DONE in flight under the client's credit window —
	// wait for the per-query goroutines before touching the sockets.
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	var dwg sync.WaitGroup
	for _, sc := range conns {
		dwg.Add(1)
		go func(sc *srvConn) {
			defer dwg.Done()
			sc.drain(ctx)
		}(sc)
	}
	dwg.Wait()
	// Teardown phase: whatever is left is an idle client or a stalled
	// stream past its grace — close the sockets to unblock the connection
	// readers, then wait for every goroutine.
	s.mu.Lock()
	for sc := range s.conns {
		sc.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Close is Shutdown with no grace: in-flight queries are force-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

// Engine returns the wrapped engine (observability: meter, plan cache).
func (s *Server) Engine() *core.Engine { return s.eng }

// srvConn is the server side of one client connection.
type srvConn struct {
	srv *Server
	c   *wire.Conn

	mu      sync.Mutex
	streams map[uint32]*srvStream // every open stream id, queries and views
	qwg     sync.WaitGroup

	// A VAPPLY round's decoded rows, reused by the next round: the view
	// copies what it is handed (parallel.Resident.Inject). Only the
	// demultiplex loop touches them.
	ins, del []relation.Tuple
	deltas   []ivm.Delta
}

// srvStream is what one open stream id addresses: an in-flight query
// (cancel and win set) or a resident view (view set). Both live in one
// registry, so an id carries one conversation at a time.
type srvStream struct {
	cancel context.CancelFunc
	win    *wire.Window
	view   *core.View
}

// stream returns what sid addresses, nil when the id is not open.
func (sc *srvConn) stream(sid uint32) *srvStream {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.streams[sid]
}

// drain waits for this connection's in-flight query goroutines, cancelling
// whatever is still running when ctx expires (a client that stopped
// granting credit).
func (sc *srvConn) drain(ctx context.Context) {
	done := make(chan struct{})
	go func() { sc.qwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		sc.mu.Lock()
		for _, st := range sc.streams {
			if st.view == nil {
				st.cancel()
			}
		}
		sc.mu.Unlock()
		<-done
	}
}

// serve runs the connection to completion: hello exchange, then the frame
// demultiplex loop. Any protocol violation or transport error tears the
// connection down — every in-flight query is cancelled and drained before
// the socket closes, so a client disconnect mid-stream releases the
// queries' memory reservations.
func (sc *srvConn) serve() {
	defer func() {
		sc.mu.Lock()
		var views []*core.View
		for sid, st := range sc.streams {
			if st.view == nil {
				st.cancel()
				continue
			}
			views = append(views, st.view)
			delete(sc.streams, sid)
		}
		sc.mu.Unlock()
		// A client disconnect must not strand resident hash tables on the
		// engine's budget: views are connection-scoped.
		for _, v := range views {
			v.Close()
		}
		sc.qwg.Wait()
		sc.c.Close()
	}()
	var hello helloMsg
	if err := sc.c.ReadMsg(wire.KindHello, &hello, helloTimeout); err != nil {
		return
	}
	if err := checkHello(hello, roleClient); err != nil {
		return
	}
	if err := sc.c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleServer}); err != nil {
		return
	}
	for {
		kind, payload, err := sc.c.ReadFrame()
		if err != nil {
			return
		}
		switch kind {
		case fsSubmit:
			var sub submitMsg
			if err := sc.c.DecodeMsg(payload, &sub); err != nil {
				return
			}
			sc.submit(sub)
		case wire.KindCredit:
			sid, n, err := wire.ParseCredit(payload)
			if err != nil {
				return
			}
			if st := sc.stream(sid); st != nil && st.view == nil {
				st.win.Grant(n)
			}
		case fsCancel:
			sid, err := wire.ParseStreamID(payload)
			if err != nil {
				return
			}
			if st := sc.stream(sid); st != nil && st.view == nil {
				st.cancel()
			}
		case fsViewCreate:
			var vc viewCreateMsg
			if err := sc.c.DecodeMsg(payload, &vc); err != nil {
				return
			}
			sc.viewCreate(vc)
		case fsViewApply:
			sid, n, deltas, ok := parseApply(payload)
			if !ok {
				return
			}
			sc.viewApply(sid, n, deltas)
		case fsViewClose:
			sid, err := wire.ParseStreamID(payload)
			if err != nil {
				return
			}
			sc.viewClose(sid)
		default:
			return // unknown frame kind: protocol violation
		}
	}
}

// submit validates a SUBMIT and launches its query goroutine.
func (sc *srvConn) submit(sub submitMsg) {
	sc.mu.Lock()
	if _, dup := sc.streams[sub.ID]; dup {
		sc.mu.Unlock()
		sc.writeErr(sub.ID, fmt.Errorf("serve: duplicate stream id %d", sub.ID))
		return
	}
	window := sub.Window
	if window <= 0 {
		window = DefaultWindow
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &srvStream{cancel: cancel, win: wire.NewWindow(window)}
	sc.streams[sub.ID] = q
	sc.qwg.Add(1)
	sc.mu.Unlock()
	go func() {
		defer sc.qwg.Done()
		defer cancel()
		sc.runQuery(ctx, q, sub)
		sc.mu.Lock()
		delete(sc.streams, sub.ID)
		sc.mu.Unlock()
	}()
}

// runQuery executes one submitted query and streams its result: each batch
// the runtime pushes (256 tuples on parallel, 64 on spill and sim, by
// default) as one DATA frame under the credit window, then EOS and DONE,
// or ERROR on any failure (including cancellation, whose ERROR carries
// context.Canceled's message).
func (sc *srvConn) runQuery(ctx context.Context, sq *srvStream, sub submitMsg) {
	query, opts, err := sc.srv.buildQuery(sub)
	if err != nil {
		sc.writeErr(sub.ID, err)
		return
	}
	rows, err := sc.srv.eng.Query(ctx, query, opts...)
	if err != nil {
		sc.writeErr(sub.ID, err)
		return
	}
	defer rows.Close()
	var nrows int64
	batch := relation.SharedPool(parallel.DefaultBatchTuples).Get()
	defer relation.PutShared(batch)
	for ; core.ReadBatch(rows, batch); batch.Reset() {
		err := sq.win.Take(ctx)
		if err == nil {
			err = sc.c.WriteBatch(sub.ID, batch)
		}
		if err != nil {
			// Client gone or query cancelled: abort the execution and let
			// the deferred Close drain the cursor.
			sc.writeErr(sub.ID, err)
			return
		}
		nrows += int64(batch.Len())
	}
	if err := rows.Err(); err != nil {
		sc.writeErr(sub.ID, err)
		return
	}
	if err := sc.c.WriteStreamID(wire.KindEOS, sub.ID); err != nil {
		return
	}
	done := doneMsg{ID: sub.ID, Rows: nrows}
	if res, ok := rows.Result(); ok {
		done.WallNanos = res.Time.Nanoseconds()
		done.QueueWaitNanos = res.Stats.QueueWait.Nanoseconds()
		done.SpilledBytes = res.Stats.BytesSpilled
		done.MemReserved = res.Stats.MemReserved
		done.PlanCacheHit = res.Stats.PlanCacheHit
	}
	sc.c.WriteMsg(fsDone, done)
}

// writeErr sends an ERROR frame; transport failures are ignored (the
// connection teardown path handles them).
func (sc *srvConn) writeErr(sid uint32, err error) {
	sc.c.WriteMsg(fsError, errMsg{ID: sid, Msg: err.Error()})
}

// viewCreate materializes one view and acknowledges with VOK carrying the
// database shape. Runs synchronously in the demux loop: the population is
// the round-zero refresh, and a view connection has nothing else to do.
func (sc *srvConn) viewCreate(vc viewCreateMsg) {
	if sc.stream(vc.ID) != nil {
		sc.writeErr(vc.ID, fmt.Errorf("serve: duplicate stream id %d", vc.ID))
		return
	}
	shape := vc.Shape
	if shape == "" {
		shape = "left-linear"
	}
	query, _, err := sc.srv.buildQuery(submitMsg{
		ID: vc.ID, Shape: shape, Relations: vc.Relations, Strategy: "FP", Procs: vc.Procs,
	})
	if err != nil {
		sc.writeErr(vc.ID, err)
		return
	}
	v, err := sc.srv.eng.CreateView(context.Background(), query)
	if err != nil {
		sc.writeErr(vc.ID, err)
		return
	}
	sc.mu.Lock()
	sc.streams[vc.ID] = &srvStream{view: v}
	sc.mu.Unlock()
	db := sc.srv.eng.DB()
	cards := make([]int64, db.NumRelations())
	for i := range cards {
		cards[i] = int64(db.Card(i))
	}
	sc.c.WriteMsg(fsViewOK, viewOKMsg{
		ID: vc.ID, Rows: int64(v.ResultCard()), Resident: v.Resident(), Cards: cards,
	})
}

// viewApply runs one maintenance round — the n deltas of a VAPPLY frame
// whose framing parseApply checked — and acknowledges with VRESULT. The
// rows are decoded straight from the connection's read buffer into the
// connection's round buffers; a delta slice taken before a buffer grows
// keeps viewing the old array, which nothing rewrites.
func (sc *srvConn) viewApply(sid uint32, n int, deltas []byte) {
	st := sc.stream(sid)
	if st == nil || st.view == nil {
		sc.writeErr(sid, fmt.Errorf("serve: no view on stream id %d", sid))
		return
	}
	sc.ins, sc.del, sc.deltas = sc.ins[:0], sc.del[:0], sc.deltas[:0]
	for ; n > 0; n-- {
		rel, blocks, rest, _ := nextDelta(deltas)
		ins, del, err := relation.DecodeSignedTuples(sc.ins, sc.del, blocks)
		if err != nil {
			sc.writeErr(sid, err)
			return
		}
		d := ivm.Delta{Rel: rel, Insert: ins[len(sc.ins):len(ins):len(ins)], Delete: del[len(sc.del):len(del):len(del)]}
		sc.ins, sc.del, sc.deltas, deltas = ins, del, append(sc.deltas, d), rest
	}
	t0 := time.Now()
	res, err := st.view.Apply(context.Background(), sc.deltas...)
	if err != nil {
		sc.writeErr(sid, err)
		return
	}
	sc.c.WriteMsg(fsViewResult, viewResultMsg{
		ID: sid, Inserted: int64(res.Inserted), Deleted: int64(res.Deleted),
		Unmatched: res.Unmatched, Changes: int64(res.Changes),
		Rows: int64(res.ResultCard), WallNanos: time.Since(t0).Nanoseconds(),
	})
}

// viewClose releases a view's resident tables and acknowledges with DONE
// carrying the final result cardinality.
func (sc *srvConn) viewClose(sid uint32) {
	st := sc.stream(sid)
	if st == nil || st.view == nil {
		sc.writeErr(sid, fmt.Errorf("serve: no view on stream id %d", sid))
		return
	}
	sc.mu.Lock()
	delete(sc.streams, sid)
	sc.mu.Unlock()
	v := st.view
	rows := int64(v.ResultCard())
	v.Close()
	sc.c.WriteMsg(fsDone, doneMsg{ID: sid, Rows: rows})
}

// maxProcs bounds the processor count a SUBMIT or VCREATE may plan for. A
// plan's processes, streams and buffers grow with it (measured: 2.4 GiB and
// 8.7 s at 2^20 on a 4x500 database), so without a bound one small frame
// buys unbounded server work. The paper's machine has 100 nodes.
const maxProcs = 4096

// buildQuery resolves a submitMsg against the server's database into an
// executable query and its per-query options. It rejects an oversized
// request before anything is planned or cached.
func (s *Server) buildQuery(sub submitMsg) (core.Query, []core.Option, error) {
	if sub.Procs > maxProcs {
		return core.Query{}, nil, fmt.Errorf("serve: %d processors requested, limit is %d", sub.Procs, maxProcs)
	}
	db := s.eng.DB()
	k := sub.Relations
	if k == 0 {
		k = db.NumRelations()
	}
	if k < 2 || k > db.NumRelations() {
		return core.Query{}, nil, fmt.Errorf("serve: %d relations requested, database has %d", k, db.NumRelations())
	}
	shape, err := jointree.ParseShape(sub.Shape)
	if err != nil {
		return core.Query{}, nil, err
	}
	tree, err := s.tree(shape, k)
	if err != nil {
		return core.Query{}, nil, err
	}
	kind, err := strategy.Parse(sub.Strategy)
	if err != nil {
		return core.Query{}, nil, err
	}
	// Default the plan's processor count so any strategy fits: FP needs a
	// processor per concurrent operation, so scale with the join fan-in
	// (plans may name more processors than the host has cores — the
	// engine's shared pool caps actual concurrency).
	procs := sub.Procs
	if procs <= 0 {
		procs = max(runtime.GOMAXPROCS(0), 2*k)
	}
	q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs}
	var opts []core.Option
	if sub.Runtime != "" {
		opts = append(opts, core.WithRuntime(sub.Runtime))
	}
	return q, opts, nil
}

// tree returns the join tree of shape over k relations, built by the first
// request that asks for it and shared by every later one: nothing writes
// to a built tree (core.Advise mirrors a Clone). buildQuery has checked k
// against the database, so the trees are bounded by shapes × relations.
// Two first requests may both build; every request gets the one stored.
func (s *Server) tree(shape jointree.Shape, k int) (*jointree.Node, error) {
	key := [2]int{int(shape), k}
	if t, ok := s.trees.Load(key); ok {
		return t.(*jointree.Node), nil
	}
	t, err := jointree.BuildShape(shape, k)
	if err != nil {
		return nil, err
	}
	shared, _ := s.trees.LoadOrStore(key, t)
	return shared.(*jointree.Node), nil
}
