package dist

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sync/atomic"
	"time"

	"multijoin/internal/operator"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
	"multijoin/internal/xra"
)

// DefaultWorkers is the worker-process count when Config.Workers is unset.
const DefaultWorkers = 2

// Timeouts guarding the run against a wedged or dead child: spawned
// workers must say HELLO and READY promptly, and their DONE must follow
// the coordinator's own run completion (their producers finished before
// our collect could).
const (
	spawnTimeout = 30 * time.Second
	doneTimeout  = 60 * time.Second
	exitGrace    = 5 * time.Second
)

// Config parameterizes one distributed execution.
type Config struct {
	// Workers is the number of worker processes to spawn; plan processor
	// id p runs on worker p mod Workers. Zero means DefaultWorkers.
	Workers int
	// BatchTuples and ChannelDepth mirror the parallel runtime's knobs and
	// apply on every node; the credit window per node-crossing stream
	// equals the resolved ChannelDepth.
	BatchTuples  int
	ChannelDepth int
	// WorkerBinary overrides worker binary resolution (see workerBinary).
	WorkerBinary string
	// ListenAddr is the coordinator's bind address for control and data
	// connections; empty means the single-host default (loopback with an
	// ephemeral port). AdvertiseAddr overrides the address workers are
	// given to dial back — required when ListenAddr binds a wildcard, and
	// resolved against the actually bound port (ResolveAdvertise), so a
	// fixed hostname composes with an ephemeral port.
	ListenAddr    string
	AdvertiseAddr string
}

// workerProc is the coordinator's handle on one spawned worker.
type workerProc struct {
	node     int
	cmd      *exec.Cmd
	ctrl     *wire.Conn
	exited   chan struct{}
	waitErr  error
	doneSeen atomic.Bool
	// killed records that the coordinator itself killed the child (a
	// teardown straggler), so its abnormal exit is not read as a crash.
	killed atomic.Bool
}

// nodeDone pairs a DONE report with its worker.
type nodeDone struct {
	node int
	msg  doneMsg
}

// Run executes the plan across Config.Workers freshly spawned worker
// processes plus this process as coordinator, streaming the final result
// into sink (the push contract of parallel.Sink / core.Sink). It returns
// when the result is fully delivered and every child reaped; cancellation
// propagates to the workers as CANCEL frames and the call never leaves
// goroutines, sockets or child processes behind. The result's counters are
// merged across the coordinator and every worker; its WallTime is the
// whole run, worker spawn and teardown included.
func Run(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config, sink parallel.Sink) (*parallel.RunResult, error) {
	if sink == nil {
		return nil, errors.New("dist: Run needs a sink")
	}
	wiring, err := operator.Wire(plan)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = DefaultWorkers
	}
	bin, err := workerBinary(cfg)
	if err != nil {
		return nil, err
	}
	bt := cfg.BatchTuples
	if bt < 1 {
		bt = parallel.DefaultBatchTuples
	}
	depth := cfg.ChannelDepth
	if depth < 1 {
		depth = parallel.DefaultChannelDepth
	}
	window := depth

	runID := newRunID()
	ln, err := listenOn(cfg.ListenAddr, runID)
	if err != nil {
		return nil, err
	}
	coordAddr, err := ResolveAdvertise(ln.Addr(), cfg.AdvertiseAddr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	start := time.Now()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed atomic.Bool
	failCh := make(chan error, 1)
	fail := func(err error) {
		if failed.CompareAndSwap(false, true) {
			failCh <- err
			cancel()
		}
	}
	var closing atomic.Bool

	retain := plan.NumStreams() * (depth + 1)
	if retain > relation.MaxPoolRetain {
		retain = relation.MaxPoolRetain
	}
	pool := relation.NewBatchPool(bt, retain)
	p := newPlane(runCtx, window, pool, fail)
	for _, sp := range wiring.Streams() {
		fn, tn := nodeOf(sp.FromProc(), workers), nodeOf(sp.ToProc(), workers)
		if tn == coordNode && fn != coordNode {
			p.expectIngress(uint32(sp.ID))
		}
	}

	// Accept loop: control HELLOs go to the rendezvous channel, data
	// connections straight to the plane.
	type helloConn struct {
		c *wire.Conn
		h helloMsg
	}
	helloCh := make(chan helloConn, workers)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, h, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			switch h.Kind {
			case kindControl:
				select {
				case helloCh <- helloConn{c, h}:
				default:
					c.Close()
				}
			case kindData:
				p.track(c)
			}
		}
	}()

	// Spawn the children and watch each for a premature exit (the crash
	// signal: gone before its DONE while the run is still live).
	ws := make([]*workerProc, workers)
	abort := func(err error) (*parallel.RunResult, error) {
		closing.Store(true)
		cancel()
		// Tell every worker we know to stop, then cut all control paths —
		// including HELLOs still queued at the rendezvous — so workers
		// blocked on SETUP see the run end instead of eating the reap grace.
		for _, w := range ws {
			if w != nil && w.ctrl != nil {
				w.ctrl.WriteFrame(ftCancel, nil)
				w.ctrl.Close()
			}
		}
		ln.Close()
		<-acceptDone
		for {
			select {
			case hc := <-helloCh:
				hc.c.Close()
				continue
			default:
			}
			break
		}
		reapAll(ws, exitGrace)
		p.teardown()
		// A child that vanished before its DONE (and that we did not kill
		// ourselves) is the likeliest root cause — transport errors like a
		// lost data connection are its symptoms. Name it in the error.
		for _, w := range ws {
			if w != nil && w.cmd != nil && w.waitErr != nil &&
				!w.doneSeen.Load() && !w.killed.Load() {
				err = fmt.Errorf("dist: worker %d died mid-run (%v): %w", w.node, w.waitErr, err)
				break
			}
		}
		return nil, err
	}
	for i := 0; i < workers; i++ {
		cmd, err := spawnWorker(bin, coordAddr, runID, i)
		if err != nil {
			return abort(err)
		}
		w := &workerProc{node: i, cmd: cmd, exited: make(chan struct{})}
		ws[i] = w
		go func() {
			w.waitErr = w.cmd.Wait()
			close(w.exited)
			if !w.doneSeen.Load() && !closing.Load() && runCtx.Err() == nil {
				status := "exited"
				if w.waitErr != nil {
					status = w.waitErr.Error()
				}
				fail(fmt.Errorf("dist: worker %d died mid-run (%s)", w.node, status))
			}
		}()
	}

	// Rendezvous: every worker says HELLO with its data address.
	dataAddrs := make([]string, workers)
	for have := 0; have < workers; {
		select {
		case hc := <-helloCh:
			n := hc.h.Node
			if n < 0 || n >= workers || ws[n].ctrl != nil {
				hc.c.Close()
				return abort(fmt.Errorf("dist: bogus worker hello (node %d)", n))
			}
			ws[n].ctrl = hc.c
			dataAddrs[n] = hc.h.DataAddr
			have++
		case err := <-failCh:
			return abort(err)
		case <-runCtx.Done():
			return abort(fmt.Errorf("dist: %w", context.Cause(runCtx)))
		case <-time.After(spawnTimeout):
			return abort(fmt.Errorf("dist: timed out waiting for worker handshakes"))
		}
	}

	// Per-worker control readers: READY and DONE flow back on the control
	// connections; anything else (or a lost connection mid-run) fails the
	// run.
	readyCh := make(chan int, workers)
	doneCh := make(chan nodeDone, workers)
	for _, w := range ws {
		w := w
		go func() {
			for {
				kind, payload, err := w.ctrl.ReadFrame()
				if err != nil {
					if !closing.Load() && runCtx.Err() == nil {
						fail(fmt.Errorf("dist: worker %d control connection lost: %w", w.node, err))
					}
					return
				}
				switch kind {
				case ftReady:
					readyCh <- w.node
				case ftDone:
					var d doneMsg
					if err := w.ctrl.DecodeMsg(payload, &d); err != nil {
						fail(err)
						return
					}
					w.doneSeen.Store(true)
					doneCh <- nodeDone{w.node, d}
				default:
					fail(fmt.Errorf("dist: unexpected frame 0x%02x from worker %d", kind, w.node))
					return
				}
			}
		}()
	}

	// Ship each worker its SETUP: the plan as text, the peers' data
	// addresses, and the pre-placed fragments of every scan instance it
	// hosts (encoded as columnar blocks).
	leafCards := make(map[int]int)
	frags := make([][]fragMsg, workers)
	for _, op := range plan.Ops {
		if op.Kind != xra.OpScan {
			continue
		}
		rel := base(op.Leaf)
		if rel == nil {
			return abort(fmt.Errorf("dist: no base relation for leaf %d", op.Leaf))
		}
		leafCards[op.Leaf] = rel.Card()
		fb := relation.FragmentBatches(rel, op.FragAttr, len(op.Procs))
		for i, proc := range op.Procs {
			tn := nodeOf(proc, workers)
			frags[tn] = append(frags[tn], fragMsg{
				OpID:   op.ID,
				Idx:    i,
				Blocks: relation.AppendBlocksBytes(nil, &fb[i], relation.MaxBlockTuples),
			})
		}
	}
	planText := xra.Encode(plan)
	for _, w := range ws {
		su := setupMsg{
			Workers:      workers,
			Node:         w.node,
			PeerAddrs:    dataAddrs,
			CoordAddr:    coordAddr,
			PlanText:     planText,
			LeafCards:    leafCards,
			BatchTuples:  bt,
			ChannelDepth: depth,
			Window:       window,
			Frags:        frags[w.node],
		}
		if err := w.ctrl.WriteMsg(ftSetup, su); err != nil {
			return abort(fmt.Errorf("dist: setup worker %d: %w", w.node, err))
		}
	}

	// READY barrier, then START: a worker only dials its data connections
	// after START, when every receiver's queues exist.
	for have := 0; have < workers; {
		select {
		case <-readyCh:
			have++
		case err := <-failCh:
			return abort(err)
		case <-runCtx.Done():
			return abort(fmt.Errorf("dist: %w", context.Cause(runCtx)))
		case <-time.After(spawnTimeout):
			return abort(fmt.Errorf("dist: timed out waiting for worker setup"))
		}
	}
	for _, w := range ws {
		if err := w.ctrl.WriteFrame(ftStart, nil); err != nil {
			return abort(fmt.Errorf("dist: start worker %d: %w", w.node, err))
		}
	}

	// The coordinator's own partial run: just the scheduler-host processes
	// (collect), gathering the workers' streams into the caller's sink.
	res, runErr := parallel.RunStream(runCtx, plan, nil, parallel.Config{
		MaxProcs:     1,
		BatchTuples:  bt,
		ChannelDepth: depth,
		Partial: &parallel.Partial{
			Local:     func(proc int) bool { return proc < 0 },
			Ingress:   p.ingress,
			Egress:    p.egress,
			LeafCard:  func(leaf int) int { return leafCards[leaf] },
			BatchPool: pool,
		},
	}, sink)
	if runErr != nil {
		if err := ctx.Err(); err != nil {
			return abort(fmt.Errorf("dist: %w", err))
		}
		select {
		case err := <-failCh:
			return abort(err)
		default:
		}
		return abort(runErr)
	}

	// Gather every worker's DONE and merge its counters into the
	// coordinator's own run (tuples, batches, goroutines and wire bytes are
	// summed over the nodes; the structural plan counters are
	// node-independent). The collect node's single slot is not the run's
	// cap — every worker schedules its own processes — so MaxProcs reads 0.
	st := &res.Stats
	st.Goroutines += p.goroutines()
	st.MaxProcs = 0
	st.Workers = workers
	st.BytesOnWire = p.bytes.Load()
	for have := 0; have < workers; {
		select {
		case nd := <-doneCh:
			st.TuplesMovedRemote += nd.msg.TuplesMovedRemote
			st.TuplesLocal += nd.msg.TuplesLocal
			st.Batches += nd.msg.Batches
			st.Goroutines += nd.msg.Goroutines
			st.BytesOnWire += nd.msg.BytesOnWire
			for id, d := range nd.msg.OpWall {
				if d > st.OpDone[id] {
					st.OpDone[id] = d
				}
			}
			have++
		case err := <-failCh:
			return abort(err)
		case <-runCtx.Done():
			return abort(fmt.Errorf("dist: %w", context.Cause(runCtx)))
		case <-time.After(doneTimeout):
			return abort(fmt.Errorf("dist: timed out waiting for worker completion"))
		}
	}

	// Clean teardown: closing the control connections is the workers'
	// signal that the whole run is over and their sockets may go.
	p.quiesce()
	closing.Store(true)
	for _, w := range ws {
		w.ctrl.Close()
	}
	reapAll(ws, exitGrace)
	ln.Close()
	p.teardown()
	<-acceptDone
	res.WallTime = time.Since(start)
	return res, nil
}

// reapAll waits for every child to exit, killing stragglers once the
// shared grace period is spent — teardown never hangs on a wedged child
// and never leaks one.
func reapAll(ws []*workerProc, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for _, w := range ws {
		if w == nil || w.cmd == nil {
			continue
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			w.killed.Store(true)
			w.cmd.Process.Kill()
			<-w.exited
			continue
		}
		t := time.NewTimer(remain)
		select {
		case <-w.exited:
		case <-t.C:
			w.killed.Store(true)
			w.cmd.Process.Kill()
			<-w.exited
		}
		t.Stop()
	}
}
