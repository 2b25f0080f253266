package dist

import (
	"context"
	"fmt"

	"multijoin/internal/operator"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
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

// node is one member of a distributed run, the coordinator (coordNode) or a
// worker, and what it owns for the run: the batch pool and the data plane,
// its share of the plan's streams, one accept loop, one partial run of the
// plan and one teardown. Both sides of a run are built on it, so they
// cannot disagree about which streams cross between them.
type node struct {
	id, workers int
	plan        *xra.Plan
	pool        *relation.BatchPool
	p           *plane
	// egressTo lists the streams leaving this node by target node; each
	// stream arriving from another node has its ingress queue in p.
	egressTo map[int][]int
	// reports carries what the workers say on their control connections:
	// the connection with its HELLO, then READY and DONE. It is the
	// coordinator's; a worker's is nil, so it refuses control connections.
	reports    chan report
	ln         *Listener
	acceptDone chan struct{}
}

// report is one control message from a worker: its HELLO (c set), READY or
// DONE.
type report struct {
	node int
	kind byte
	c    *wire.Conn
	addr string // the worker's data address, on HELLO
	done doneMsg
}

// newNode declares node id's share of plan for a run under ctx that fail
// ends: the batch pool, the plane, an ingress queue for every stream that
// arrives from another node and the list of those that leave for one. It
// opens nothing.
func newNode(ctx context.Context, id, workers int, plan *xra.Plan, batchTuples, depth int, fail func(error)) (*node, error) {
	wiring, err := operator.Wire(plan)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	pool := relation.NewBatchPool(batchTuples, min(plan.NumStreams()*(depth+1), relation.MaxPoolRetain))
	n := &node{id: id, workers: workers, plan: plan, pool: pool, p: newPlane(ctx, depth, pool, fail),
		egressTo: make(map[int][]int), acceptDone: make(chan struct{})}
	for _, sp := range wiring.Streams() {
		from, to := nodeOf(sp.FromProc(), workers), nodeOf(sp.ToProc(), workers)
		switch {
		case from == to:
		case from == id:
			n.egressTo[to] = append(n.egressTo[to], sp.ID)
		case to == id:
			n.p.expectIngress(uint32(sp.ID))
		}
	}
	return n, nil
}

// accept starts the node's accept loop on ln. Each connection's HELLO is
// read on a goroutine of the plane (handshake), so a connection that is
// slow or silent holds up no other, and one whose HELLO is refused is
// dropped without failing the run.
func (n *node) accept(ln *Listener) {
	n.ln = ln
	go func() {
		defer close(n.acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			n.p.track(c, n.handshake)
		}
	}()
}

// handshake reads an accepted connection's HELLO and reports whether the
// plane is to serve it as a data connection. A control connection goes to
// reports; a refused one, or one nobody takes, is dropped.
func (n *node) handshake(c *wire.Conn) bool {
	h, err := n.ln.handshake(c)
	switch {
	case err != nil:
	case h.Kind == kindData:
		return true
	default:
		select {
		case n.reports <- report{node: h.Node, kind: wire.KindHello, c: c, addr: h.DataAddr}:
			return false
		default:
		}
	}
	n.p.drop(c)
	return false
}

// run executes the node's partial run of the plan: the processes placed on
// it, on one slot per distinct processor, with every node-crossing stream
// on the plane. frags holds the node's scan fragments; only the coordinator
// passes a sink (it hosts the collect).
func (n *node) run(ctx context.Context, leafCards map[int]int, frags map[fragKey]relation.Batch, sink parallel.Sink) (*parallel.RunResult, error) {
	local := func(proc int) bool { return nodeOf(proc, n.workers) == n.id }
	return parallel.RunStream(ctx, n.plan, nil, parallel.Config{
		MaxProcs:     localProcCount(n.plan, local),
		BatchTuples:  n.pool.BatchSize(),
		ChannelDepth: n.p.window,
		Partial: &parallel.Partial{
			Local:        local,
			Ingress:      n.p.ingress,
			Egress:       n.p.egress,
			ScanFragment: func(opID string, idx int) relation.Batch { return frags[fragKey{opID, idx}] },
			LeafCard:     func(leaf int) int { return leafCards[leaf] },
			BatchPool:    n.pool,
		},
	}, sink)
}

// close ends the node: it stops accepting, closes every connection the
// plane has (handshakes in progress included) and joins the plane's
// goroutines. The run's context must be over or the plane quiesced.
func (n *node) close() {
	n.ln.Close()
	<-n.acceptDone
	n.p.teardown()
}

// localProcCount counts the distinct plan processor ids placed on this
// node — the node's modeled-processor (slot) count.
func localProcCount(plan *xra.Plan, local func(int) bool) int {
	seen := make(map[int]bool)
	for _, op := range plan.Ops {
		for _, p := range op.Procs {
			if local(p) {
				seen[p] = true
			}
		}
	}
	return max(len(seen), 1)
}
