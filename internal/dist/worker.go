package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync/atomic"
	"syscall"

	"multijoin/internal/relation"
	"multijoin/internal/wire"
	"multijoin/internal/xra"
)

// ServeWorkerOn runs one worker process of a distributed run to completion:
// dial the coordinator, hand over our data address, build the node the
// SETUP describes, run its share of the plan with the plan's own worker
// loop (parallel.Partial), report DONE, and hold all connections open until
// the coordinator closes the control connection — the signal that every
// node has drained our frames. It is called by InitWorker in spawned
// processes and by cmd/mjworker. bind is the address of the worker's data
// listener and advertise an override for the address the peers are told to
// dial (ResolveAdvertise semantics): empty bind means loopback with an
// ephemeral port, empty advertise the bound address.
func ServeWorkerOn(connect string, id int, runID, bind, advertise string) error {
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
		Version: protoVersion, RunID: runID, Node: id,
		Kind: kindControl, DataAddr: dataAddr,
	})
	if err != nil {
		return err
	}
	defer ctrl.Close()
	var su setupMsg
	if err := ctrl.ReadMsg(ftSetup, &su, 0); err != nil {
		var u *wire.UnexpectedFrameError
		if errors.As(err, &u) && u.Got == ftCancel || quietClose(err) {
			return nil // the coordinator aborted before setting us up
		}
		return fmt.Errorf("dist: worker %d: setup: %w", id, err)
	}
	plan, err := xra.Parse(su.PlanText)
	if err != nil {
		return fmt.Errorf("dist: worker %d: plan: %w", id, err)
	}
	frags := make(map[fragKey]relation.Batch, len(su.Frags))
	for _, f := range su.Frags {
		var b relation.Batch
		if err := b.AppendBlocks(f.Blocks); err != nil {
			return fmt.Errorf("dist: worker %d: fragment %s/%d: %w", id, f.OpID, f.Idx, err)
		}
		frags[fragKey{f.OpID, f.Idx}] = b
	}

	// fail cancels the run with the first failure as its cause. The control
	// reader and the data plane's goroutines call it concurrently, so the
	// cause is read through context.Cause, and read before the exit's own
	// cancel, which would record context.Canceled.
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	n, err := newNode(ctx, id, su.Workers, plan, su.BatchTuples, su.ChannelDepth, fail)
	if err != nil {
		return err
	}
	n.accept(ln) // peers with streams toward us dial in after START

	// The control connection carries START, then at most a CANCEL, then the
	// coordinator's close, which ends the run: expected once we have sent
	// DONE (closing), an abort to obey before START, a lost coordinator in
	// between.
	var closing atomic.Bool
	started, ctrlDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ctrlDone)
		for want := ftStart; ; want = ftCancel {
			kind, _, err := ctrl.ReadFrame()
			switch {
			case err != nil && want == ftStart && quietClose(err):
				fail(errCancelled) // the coordinator aborted before START
				return
			case err != nil:
				if !closing.Load() {
					fail(fmt.Errorf("dist: worker %d: coordinator connection lost: %w", id, err))
				}
				return
			case kind == ftCancel:
				fail(errCancelled)
				return
			case kind != want:
				fail(fmt.Errorf("dist: worker %d: unexpected frame 0x%02x", id, kind))
				return
			}
			close(started)
		}
	}()

	err = func() error {
		if err := ctrl.WriteFrame(ftReady, nil); err != nil {
			return fmt.Errorf("dist: worker %d: ready: %w", id, err)
		}
		select {
		case <-started:
		case <-ctx.Done():
			return nil // the cause is the run's error
		}
		// Dial one data connection per node we send to (deterministic
		// order), and hang every egress stream toward that node off it.
		for _, to := range slices.Sorted(maps.Keys(n.egressTo)) {
			addr := su.CoordAddr
			if to != coordNode {
				addr = su.PeerAddrs[to]
			}
			c, err := dialHello(addr, helloMsg{Version: protoVersion, RunID: runID, Node: id, Kind: kindData})
			if err != nil {
				return err
			}
			n.p.track(c, nil)
			for _, sid := range n.egressTo[to] {
				n.p.addEgress(uint32(sid), c)
			}
		}
		res, err := n.run(ctx, su.LeafCards, frags, nil) // no sink: collect runs on the coordinator
		if err != nil {
			return err
		}
		// Flush every EOS (quiesce), report DONE with our counters, then
		// hold the sockets open until the coordinator ends the run.
		n.p.quiesce()
		closing.Store(true)
		st := &res.Stats
		if err := ctrl.WriteMsg(ftDone, doneMsg{
			TuplesMovedRemote: st.TuplesMovedRemote,
			TuplesLocal:       st.TuplesLocal,
			Batches:           st.Batches,
			Goroutines:        st.Goroutines + n.p.goroutines(),
			BytesOnWire:       n.p.bytes.Load(),
			OpWall:            st.OpDone,
		}); err != nil {
			return fmt.Errorf("dist: worker %d: done: %w", id, err)
		}
		<-ctrlDone
		return nil
	}()

	// The one exit: close everything, unblocking any stuck goroutine, and
	// report the first failure. A coordinator-initiated cancel is a clean
	// exit, not a failure.
	cause := context.Cause(ctx)
	fail(nil)
	closing.Store(true)
	ctrl.Close()
	<-ctrlDone
	n.close()
	if errors.Is(cause, errCancelled) {
		return nil
	}
	if cause != nil {
		return cause
	}
	return err
}

// quietClose reports whether err is an orderly connection teardown — the
// coordinator ending the run before this worker got its next control
// frame, which is an abort to obey silently, not a failure to report.
func quietClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
