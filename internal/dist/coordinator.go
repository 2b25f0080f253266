package dist

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sync/atomic"
	"time"

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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	workers, bt, depth := cfg.Workers, cfg.BatchTuples, cfg.ChannelDepth
	if workers < 1 {
		workers = DefaultWorkers
	}
	if bt < 1 {
		bt = parallel.DefaultBatchTuples
	}
	if depth < 1 {
		depth = parallel.DefaultChannelDepth
	}
	bin, err := workerBinary()
	if err != nil {
		return nil, err
	}
	// fail ends the run with the first failure as its cause: a worker's
	// exit, a lost connection, a bad frame.
	runCtx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	n, err := newNode(runCtx, coordNode, workers, plan, bt, depth, fail)
	if err != nil {
		return nil, err
	}
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
	n.reports = make(chan report, workers) // room for every worker's HELLO
	n.accept(ln)

	ws := make([]*workerProc, workers)
	res, err := func() (*parallel.RunResult, error) {
		// Spawn the children and watch each for a premature exit (the crash
		// signal: gone before its DONE while the run is still live).
		for i := range ws {
			cmd, err := spawnWorker(bin, coordAddr, runID, i)
			if err != nil {
				return nil, err
			}
			w := &workerProc{node: i, cmd: cmd, exited: make(chan struct{})}
			ws[i] = w
			go func() {
				w.waitErr = w.cmd.Wait()
				close(w.exited)
				if !w.doneSeen.Load() && runCtx.Err() == nil {
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
		err := n.await(runCtx, wire.KindHello, spawnTimeout, "worker handshakes", func(r report) bool {
			if r.node < 0 || r.node >= workers || ws[r.node].ctrl != nil {
				return false
			}
			ws[r.node].ctrl, dataAddrs[r.node] = r.c, r.addr
			return true
		})
		if err != nil {
			return nil, err
		}

		// Per-worker control readers, joined by the node's teardown: READY
		// and DONE flow back on the control connections; anything else, or
		// a lost connection, fails the run.
		for _, w := range ws {
			n.p.readers.Add(1)
			go func() {
				defer n.p.readers.Done()
				for {
					kind, payload, err := w.ctrl.ReadFrame()
					r := report{node: w.node, kind: kind}
					switch {
					case err != nil:
						fail(fmt.Errorf("dist: worker %d control connection lost: %w", w.node, err))
						return
					case kind == ftDone:
						if err := w.ctrl.DecodeMsg(payload, &r.done); err != nil {
							fail(err)
							return
						}
						w.doneSeen.Store(true)
					case kind != ftReady:
						fail(fmt.Errorf("dist: unexpected frame 0x%02x from worker %d", kind, w.node))
						return
					}
					select {
					case n.reports <- r:
					case <-runCtx.Done():
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
				return nil, fmt.Errorf("dist: no base relation for leaf %d", op.Leaf)
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
				Frags:        frags[w.node],
			}
			if err := w.ctrl.WriteMsg(ftSetup, su); err != nil {
				return nil, fmt.Errorf("dist: setup worker %d: %w", w.node, err)
			}
		}

		// READY barrier, then START: a worker only dials its data
		// connections after START, when every receiver's queues exist.
		if err := n.await(runCtx, ftReady, spawnTimeout, "worker setup", func(report) bool { return true }); err != nil {
			return nil, err
		}
		for _, w := range ws {
			if err := w.ctrl.WriteFrame(ftStart, nil); err != nil {
				return nil, fmt.Errorf("dist: start worker %d: %w", w.node, err)
			}
		}

		// The coordinator's own partial run: the collect, gathering the
		// workers' streams into the caller's sink.
		res, err := n.run(runCtx, leafCards, nil, sink)
		if cause := context.Cause(runCtx); cause != nil {
			return nil, cause
		}
		if err != nil {
			return nil, err
		}

		// Gather every worker's DONE and merge its counters into the
		// coordinator's own run (tuples, batches, goroutines and wire bytes
		// are summed over the nodes; the structural plan counters are
		// node-independent). The collect node's single slot is not the
		// run's cap — every worker schedules its own processes — so
		// MaxProcs reads 0.
		st := &res.Stats
		st.Goroutines += n.p.goroutines()
		st.MaxProcs = 0
		st.Workers = workers
		st.BytesOnWire = n.p.bytes.Load()
		return res, n.await(runCtx, ftDone, doneTimeout, "worker completion", func(r report) bool {
			st.TuplesMovedRemote += r.done.TuplesMovedRemote
			st.TuplesLocal += r.done.TuplesLocal
			st.Batches += r.done.Batches
			st.Goroutines += r.done.Goroutines
			st.BytesOnWire += r.done.BytesOnWire
			for id, d := range r.done.OpWall {
				st.OpDone[id] = max(st.OpDone[id], d)
			}
			return true
		})
	}()

	// The one exit. A successful run first flushes its data plane
	// (quiesce); a failed one tells every worker to stop. Closing the
	// control connections is every worker's signal that the run is over
	// and its sockets may go.
	if err == nil {
		n.p.quiesce()
	}
	fail(nil)
	for _, w := range ws {
		if w != nil && w.ctrl != nil {
			if err != nil {
				w.ctrl.WriteFrame(ftCancel, nil)
			}
			w.ctrl.Close()
		}
	}
	n.close()
	reapAll(ws, exitGrace)
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("dist: %w", context.Cause(ctx))
		}
		// A child that vanished before its DONE (and that we did not kill
		// ourselves) is the likeliest root cause — transport errors like a
		// lost data connection are its symptoms. Name it in the error.
		for _, w := range ws {
			if w != nil && w.waitErr != nil && !w.doneSeen.Load() && !w.killed.Load() {
				err = fmt.Errorf("dist: worker %d died mid-run (%v): %w", w.node, w.waitErr, err)
				break
			}
		}
		return nil, err
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// await takes one report of kind from each worker off the node's reports,
// handing each to got, which says whether it counts; a report that does
// not is dropped, with the connection it brings. It returns early
// with the run's failure, or once the whole phase has taken timeout.
func (n *node) await(ctx context.Context, kind byte, timeout time.Duration, what string, got func(report) bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for have := 0; have < n.workers; {
		select {
		case r := <-n.reports:
			if r.kind == kind && got(r) {
				have++
			} else if r.c != nil {
				n.p.drop(r.c)
			}
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-deadline.C:
			return fmt.Errorf("dist: timed out waiting for %s", what)
		}
	}
	return nil
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
