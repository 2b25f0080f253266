package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"syscall"

	"multijoin/internal/operator"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// coordNode is the placement id of the coordinator process: it hosts
// exactly the plan processes bound to negative processor ids (the
// scheduler host's collect, xra.HostProc).
const coordNode = -1

// nodeOf maps a plan processor id to the node that runs it: the
// round-robin rule of the parallel runtime's processor slots, with the
// scheduler host pinned to the coordinator.
func nodeOf(proc, workers int) int {
	if proc < 0 {
		return coordNode
	}
	return proc % workers
}

// fragKey identifies one scan instance's pre-placed fragment.
type fragKey struct {
	op  string
	idx int
}

// ServeWorkerOn runs one worker process of a distributed run to completion:
// dial the coordinator, hand over our data address, build the partial run
// the SETUP describes, execute it with the plan's own worker loop
// (parallel.Partial), report DONE, and hold all connections open until the
// coordinator closes the control connection — the signal that every node
// has drained our frames. It is called by InitWorker in spawned processes
// and by cmd/mjworker. bind is the address of the worker's data listener
// and advertise an override for the address the peers are told to dial
// (ResolveAdvertise semantics): empty bind means loopback with an
// ephemeral port, empty advertise the bound address.
func ServeWorkerOn(connect string, node int, runID, bind, advertise string) error {
	if connect == "" {
		return errors.New("dist: worker: no coordinator address")
	}
	ln, err := listenOn(bind, runID)
	if err != nil {
		return err
	}
	defer ln.Close()
	dataAddr, err := ResolveAdvertise(ln.Addr(), advertise)
	if err != nil {
		return err
	}
	ctrl, err := dialHello(connect, helloMsg{
		Version: protoVersion, RunID: runID, Node: node,
		Kind: kindControl, DataAddr: dataAddr,
	})
	if err != nil {
		return err
	}
	defer ctrl.Close()
	var su setupMsg
	if err := readCtrl(ctrl, ftSetup, &su); err != nil {
		if errors.Is(err, errCancelled) || quietClose(err) {
			return nil // the coordinator aborted before setting us up
		}
		return fmt.Errorf("dist: worker %d: setup: %w", node, err)
	}
	plan, err := xra.Parse(su.PlanText)
	if err != nil {
		return fmt.Errorf("dist: worker %d: plan: %w", node, err)
	}

	// fail cancels the run with the first failure as its cause. The control
	// reader and the data plane's goroutines call it concurrently, so the
	// cause is read through context.Cause, and read before the teardown's own
	// cancel, which would record context.Canceled.
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)

	retain := plan.NumStreams() * (su.ChannelDepth + 1)
	if retain > relation.MaxPoolRetain {
		retain = relation.MaxPoolRetain
	}
	pool := relation.NewBatchPool(su.BatchTuples, retain)
	p := newPlane(ctx, su.Window, pool, fail)

	local := func(proc int) bool { return proc >= 0 && proc%su.Workers == node }

	// Wire the node-crossing streams of the canonical enumeration: queues
	// for everything arriving here, a per-target-node stream list for
	// everything leaving.
	egressTo := make(map[int][]int)
	wiring, err := operator.Wire(plan)
	if err != nil {
		return fmt.Errorf("dist: worker %d: plan: %w", node, err)
	}
	for _, sp := range wiring.Streams() {
		fn, tn := nodeOf(sp.FromProc(), su.Workers), nodeOf(sp.ToProc(), su.Workers)
		if fn == node && tn != node {
			egressTo[tn] = append(egressTo[tn], sp.ID)
		}
		if tn == node && fn != node {
			p.expectIngress(uint32(sp.ID))
		}
	}

	// Decode the pre-placed scan fragments shipped in SETUP.
	frags := make(map[fragKey]relation.Batch, len(su.Frags))
	for _, f := range su.Frags {
		var b relation.Batch
		if err := b.AppendBlocks(f.Blocks); err != nil {
			return fmt.Errorf("dist: worker %d: fragment %s/%d: %w", node, f.OpID, f.Idx, err)
		}
		frags[fragKey{f.OpID, f.Idx}] = b
	}

	// Serve incoming data connections (peers with egress toward us dial in
	// after the START barrier, when our queues above already exist).
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, h, err := ln.Accept()
			if err != nil {
				return // listener closed (teardown)
			}
			if h.Kind != kindData {
				c.Close()
				continue
			}
			p.track(c)
		}
	}()

	if err := ctrl.WriteFrame(ftReady, nil); err != nil {
		return fmt.Errorf("dist: worker %d: ready: %w", node, err)
	}
	if err := readCtrl(ctrl, ftStart, nil); err != nil {
		if errors.Is(err, errCancelled) || quietClose(err) {
			return nil // aborted between setup and start
		}
		return fmt.Errorf("dist: worker %d: start: %w", node, err)
	}

	// From here the control connection carries at most a CANCEL, then the
	// coordinator's final close. closing flips once we have sent DONE and
	// the close is the expected outcome.
	var closing atomic.Bool
	ctrlClosed := make(chan struct{})
	go func() {
		defer close(ctrlClosed)
		for {
			kind, _, err := ctrl.ReadFrame()
			if err != nil {
				if !closing.Load() {
					fail(fmt.Errorf("dist: worker %d: coordinator connection lost: %w", node, err))
				}
				return
			}
			if kind == ftCancel {
				fail(errCancelled)
				return
			}
		}
	}()

	// Dial one data connection per node we send to (deterministic order),
	// and hang every egress stream toward that node off it.
	targets := make([]int, 0, len(egressTo))
	for tn := range egressTo {
		targets = append(targets, tn)
	}
	sort.Ints(targets)
	for _, tn := range targets {
		addr := su.CoordAddr
		if tn != coordNode {
			addr = su.PeerAddrs[tn]
		}
		c, err := dialHello(addr, helloMsg{Version: protoVersion, RunID: runID, Node: node, Kind: kindData})
		if err != nil {
			fail(err)
			break
		}
		p.track(c)
		for _, sid := range egressTo[tn] {
			p.addEgress(uint32(sid), c)
		}
	}

	var res *parallel.RunResult
	var runErr error
	if ctx.Err() == nil {
		cfg := parallel.Config{
			MaxProcs:     localProcCount(plan, local),
			BatchTuples:  su.BatchTuples,
			ChannelDepth: su.ChannelDepth,
			Partial: &parallel.Partial{
				Local:        local,
				Ingress:      p.ingress,
				Egress:       p.egress,
				ScanFragment: func(opID string, idx int) relation.Batch { return frags[fragKey{opID, idx}] },
				LeafCard:     func(leaf int) int { return su.LeafCards[leaf] },
				BatchPool:    pool,
			},
		}
		res, runErr = parallel.RunStream(ctx, plan, nil, cfg, nil) // no sink: collect runs on the coordinator
	}

	if failErr := context.Cause(ctx); runErr != nil || failErr != nil {
		// Torn down (cancel, peer loss, or a local failure): close
		// everything, unblocking any stuck goroutine, and report. A
		// coordinator-initiated cancel is a clean exit, not a failure.
		fail(nil)
		closing.Store(true)
		p.teardown()
		ln.Close()
		ctrl.Close()
		<-ctrlClosed
		<-acceptDone
		if errors.Is(failErr, errCancelled) {
			return nil
		}
		if failErr != nil {
			return failErr
		}
		return runErr
	}

	// Success: flush every EOS (quiesce), report DONE with our counters,
	// then hold the sockets open until the coordinator ends the run.
	p.quiesce()
	d := doneMsg{
		TuplesMovedRemote: res.Stats.TuplesMovedRemote,
		TuplesLocal:       res.Stats.TuplesLocal,
		Batches:           res.Stats.Batches,
		Goroutines:        res.Stats.Goroutines + p.goroutines(),
		BytesOnWire:       p.bytes.Load(),
		OpWall:            res.Stats.OpDone,
	}
	closing.Store(true)
	if err := ctrl.WriteMsg(ftDone, d); err != nil {
		fail(nil)
		p.teardown()
		ln.Close()
		ctrl.Close()
		<-ctrlClosed
		<-acceptDone
		return fmt.Errorf("dist: worker %d: done: %w", node, err)
	}
	<-ctrlClosed
	failErr := context.Cause(ctx)
	fail(nil)
	p.teardown()
	ln.Close()
	<-acceptDone
	if failErr != nil && !errors.Is(failErr, errCancelled) {
		return failErr
	}
	return nil
}

// quietClose reports whether err is an orderly connection teardown — the
// coordinator ending the run before this worker got its next control
// frame, which is an abort to obey silently, not a failure to report.
func quietClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// localProcCount counts the distinct plan processor ids placed on this
// node — the worker's modeled-processor (slot) count.
func localProcCount(plan *xra.Plan, local func(int) bool) int {
	seen := make(map[int]bool)
	for _, op := range plan.Ops {
		for _, p := range op.Procs {
			if local(p) {
				seen[p] = true
			}
		}
	}
	if len(seen) < 1 {
		return 1
	}
	return len(seen)
}
