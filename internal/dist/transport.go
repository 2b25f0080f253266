package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
)

// errCancelled marks a run torn down by a CANCEL frame (the remote side's
// context was cancelled).
var errCancelled = errors.New("dist: cancelled by peer")

// plane is one node's data plane: every connection the node accepts or
// dials (closed at teardown), the per-stream ingress queues and egress
// credit windows, and the pooled batch recycling shared with the node's
// partial run.
//
// Flow control is package wire's credit protocol: each egress stream
// holds a wire.Window of window credits, and the receiving plane grants a
// credit back (CREDIT frame on the same connection, reverse direction)
// only after the batch has been handed to the consuming process's inbox.
// The receiver dispatches frames off the connection into per-stream queues
// of capacity window — the protocol guarantees at most window undelivered
// batches per stream, so dispatch never blocks on a slow stream and one
// stalled consumer cannot head-of-line-block the other streams sharing the
// connection.
type plane struct {
	window int
	pool   *relation.BatchPool
	ctx    context.Context
	fail   func(error)
	bytes  atomic.Int64 // frame bytes written on this node's data conns
	spawns atomic.Int64 // transport goroutines launched (readers + movers)

	in  map[uint32]*inStream
	out map[uint32]*outStream

	mu      sync.Mutex
	conns   map[*wire.Conn]bool
	closing bool

	// readers tracks the goroutines that read a connection — handshakes,
	// data connections, the coordinator's control readers — unblocked by
	// closing their connection; movers tracks ingress pumps and egress
	// senders (unblocked by ctx cancellation and stream completion).
	readers sync.WaitGroup
	movers  sync.WaitGroup
}

// inStream is the receive side of one node-crossing stream.
type inStream struct {
	q    chan *relation.Batch
	src  atomic.Pointer[wire.Conn] // the connection delivering this stream
	once sync.Once                 // closes q on EOS (or teardown)
}

// outStream is the send side of one node-crossing stream.
type outStream struct {
	win  *wire.Window
	conn *wire.Conn
}

func newPlane(ctx context.Context, window int, pool *relation.BatchPool, fail func(error)) *plane {
	return &plane{
		window: window,
		pool:   pool,
		ctx:    ctx,
		fail:   fail,
		in:     make(map[uint32]*inStream),
		conns:  make(map[*wire.Conn]bool),
		out:    make(map[uint32]*outStream),
	}
}

// expectIngress declares that stream sid arrives from a remote node; its
// queue exists before any connection is served, so early frames always
// have a home.
func (p *plane) expectIngress(sid uint32) {
	p.in[sid] = &inStream{q: make(chan *relation.Batch, p.window)}
}

// addEgress declares that stream sid leaves this node over c, with a full
// credit window.
func (p *plane) addEgress(sid uint32, c *wire.Conn) {
	p.out[sid] = &outStream{win: wire.NewWindow(p.window), conn: c}
}

// track registers a connection for teardown and starts its reading
// goroutine. A dialed data connection (hello nil) is served at once; an
// accepted one first completes its handshake on that goroutine, and is
// served only if hello reports it a data connection. A data connection's
// writes count toward bytes-on-wire.
func (p *plane) track(c *wire.Conn, hello func(*wire.Conn) bool) {
	if hello == nil {
		c.CountBytes(&p.bytes)
	}
	p.mu.Lock()
	p.conns[c] = true
	closing := p.closing
	p.mu.Unlock()
	if closing {
		c.Close()
		return
	}
	p.readers.Add(1)
	go func() {
		defer p.readers.Done()
		if hello != nil {
			if !hello(c) {
				return
			}
			c.CountBytes(&p.bytes)
		}
		p.spawns.Add(1)
		p.serve(c)
	}()
}

// drop closes a connection the node refused and forgets it, so that a
// stream of stray connections pins nothing until the run ends.
func (p *plane) drop(c *wire.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// goroutines returns how many transport goroutines this plane launched —
// the node's contribution to the unified Goroutines counter.
func (p *plane) goroutines() int { return int(p.spawns.Load()) }

// serve is the single reading goroutine of one data connection: DATA
// frames are decoded into pooled batches and dispatched to their stream's
// queue, EOS closes the queue, CREDIT refills the egress window. A read
// error during normal operation fails the run (a peer died); during
// teardown it just ends the goroutine.
func (p *plane) serve(c *wire.Conn) {
	for {
		kind, payload, err := c.ReadFrame()
		if err != nil {
			if p.isClosing() || p.ctx.Err() != nil {
				return
			}
			p.fail(fmt.Errorf("dist: data connection lost: %w", err))
			return
		}
		switch kind {
		case wire.KindData:
			sid, block, err := wire.ParseData(payload)
			if err != nil {
				p.fail(err)
				return
			}
			in := p.in[sid]
			if in == nil {
				p.fail(fmt.Errorf("dist: data frame for unknown stream %d", sid))
				return
			}
			in.src.Store(c)
			n, size, err := relation.BlockHeader(block)
			if err != nil || size != len(block) {
				p.fail(fmt.Errorf("dist: bad block on stream %d: %v", sid, err))
				return
			}
			b := p.pool.Get()
			b.AppendColumns(block[relation.BlockHeaderBytes:size], n, 0, n)
			select {
			case in.q <- b: // capacity window; the credit protocol keeps this from blocking
			case <-p.ctx.Done():
				return
			}
		case wire.KindEOS:
			sid, err := wire.ParseStreamID(payload)
			if err != nil {
				p.fail(err)
				return
			}
			if in := p.in[sid]; in != nil {
				in.once.Do(func() { close(in.q) })
			}
		case wire.KindCredit:
			sid, n, err := wire.ParseCredit(payload)
			if err != nil {
				p.fail(err)
				return
			}
			out := p.out[sid]
			if out == nil {
				p.fail(fmt.Errorf("dist: credit for unknown stream %d", sid))
				return
			}
			out.win.Grant(n)
		default:
			p.fail(fmt.Errorf("dist: unexpected frame 0x%02x on data connection", kind))
			return
		}
	}
}

// ingress is the run's Partial.Ingress hook: it pumps stream sid's queue
// into the consuming process's inbox as hdr messages, granting one credit
// per delivered batch, and delivers the end-of-stream mark when the queue
// ends (EOS received).
func (p *plane) ingress(sid int, hdr operator.Msg, inbox chan<- operator.Msg) {
	in := p.in[uint32(sid)]
	if in == nil {
		p.fail(fmt.Errorf("dist: run opened unexpected ingress stream %d", sid))
		return
	}
	p.movers.Add(1)
	p.spawns.Add(1)
	go func() {
		defer p.movers.Done()
		for {
			select {
			case b, ok := <-in.q:
				m := hdr
				m.Batch = b // nil once the queue is closed: the end-of-stream mark
				if !operator.Send(inbox, m, p.ctx.Done(), p.pool) || !ok {
					return
				}
				if c := in.src.Load(); c != nil {
					if err := c.WriteCredit(uint32(sid), 1); err != nil {
						if !p.isClosing() && p.ctx.Err() == nil {
							p.fail(fmt.Errorf("dist: credit grant: %w", err))
						}
						return
					}
				}
			case <-p.ctx.Done():
				return
			}
		}
	}()
}

// egress is the run's Partial.Egress hook: it drains the stream's channel
// from the producing process, spending one credit per batch, writes each
// batch as a DATA frame, recycles it, and ends the stream with an EOS frame
// on the producer's end-of-stream mark.
func (p *plane) egress(sid int, ch <-chan operator.Msg) {
	out := p.out[uint32(sid)]
	if out == nil {
		p.fail(fmt.Errorf("dist: run opened unexpected egress stream %d", sid))
		return
	}
	p.movers.Add(1)
	p.spawns.Add(1)
	go func() {
		defer p.movers.Done()
		for {
			select {
			case m := <-ch:
				if m.Batch == nil {
					if err := out.conn.WriteStreamID(wire.KindEOS, uint32(sid)); err != nil && !p.isClosing() && p.ctx.Err() == nil {
						p.fail(fmt.Errorf("dist: eos: %w", err))
					}
					return
				}
				if out.win.Take(p.ctx) != nil {
					return
				}
				err := out.conn.WriteBatch(uint32(sid), m.Batch)
				p.pool.Put(m.Batch)
				if err != nil {
					if !p.isClosing() && p.ctx.Err() == nil {
						p.fail(fmt.Errorf("dist: send: %w", err))
					}
					return
				}
			case <-p.ctx.Done():
				return
			}
		}
	}()
}

func (p *plane) isClosing() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closing
}

// quiesce ends a *successful* run's data plane gracefully: wait for the
// movers (every EOS written, every delivered batch handed over), then mark
// the plane closing so the EOFs of peers tearing down their ends are
// treated as quiet closes, not failures. The connections stay open — a
// peer may not have drained our frames yet; they are closed in teardown
// once the coordinator declares the whole run over.
func (p *plane) quiesce() {
	p.movers.Wait()
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
}

// teardown closes every connection and joins all plane goroutines.
// Closing the connections is what unblocks readers stuck in ReadFrame and
// movers stuck in a TCP write on error paths (where quiesce was skipped
// and the movers unwind via ctx or write errors instead).
func (p *plane) teardown() {
	p.mu.Lock()
	p.closing = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.readers.Wait()
	p.movers.Wait()
}
