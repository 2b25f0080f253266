// Package ivm maintains materialized views incrementally over the
// pipelining join network.
//
// The paper's FP strategy already is a dataflow of long-lived join
// processes: every join runs on private processors, tuples stream through
// symmetric pipelining hash-joins, and both operand tables of every join
// are resident when the last tuple arrives. This package keeps that
// network alive after the initial run instead of tearing it down, and
// feeds it *deltas*: signed base-relation updates (insert/delete) that
// propagate node-by-node through the same channel topology, each node
// probing the opposite operand's resident table and retracting or
// extending its own. The classic multiset-delta identity makes one pass
// exact: applying ±t to one operand changes the join result by exactly
// ±(t ⋈ other operand's current state), so eager per-tuple processing at
// a single-goroutine-owned node — in any arrival order the channels allow
// — telescopes to the correct new result (Berkholz et al.,
// answering-queries-under-updates, is the theory anchor).
//
// The network is the process model of package operator — one inbox of
// operator.Msg per join-node instance, the kernel's wiring and outbox, whose
// ordering rule keeps a retraction behind the insertion it cancels — with a
// view-specific node step: signed, over two tables, with Delete.
//
// Rounds are separated by a punctuation barrier: one Apply injects its
// delta through every scan edge, then sends one end-of-round token down
// every stream of the plan. A node forwards its own tokens only after
// collecting one per incoming stream — by then, channel FIFO order
// guarantees it has processed and forwarded all of its round input — so
// the collector holding every token implies the result multiset is exact
// for the round. The collector then reports the round's
// change count, publishes the changes to subscribed change streams
// (View.Changes), and releases the waiting Apply.
//
// Resident state — two hash tables per join-node instance plus the
// collector's result multiset — is measured after every round and charged
// to the configured spill.Meter, so views compete for the same memory
// budget as queries.
package ivm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multijoin/internal/hashjoin"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// ErrViewClosed is returned by Apply/Rows on a closed (or torn-down) view.
var ErrViewClosed = errors.New("ivm: view is closed")

// DefaultBatchTuples is the transport batch size of the resident network
// when Config leaves it zero.
const DefaultBatchTuples = 256

// collEntryBytes estimates the resident cost of one distinct result tuple
// in the collector's multiset: the 24-byte tuple, an 8-byte count, and map
// bookkeeping.
const collEntryBytes = 48

// poolRetain bounds how many idle transport batches the view's private
// pool keeps.
const poolRetain = 256

// Config parameterizes a view.
type Config struct {
	// BatchTuples is the transport batch size (zero: DefaultBatchTuples).
	BatchTuples int
	// TupleBytes is the declared tuple width of Rows snapshots (zero:
	// relation.TupleWireBytes).
	TupleBytes int
	// Meter, when set, is charged with the view's resident bytes — join
	// tables plus the result multiset — re-measured after every round and
	// released on Close. Pass a child of the engine's shared meter so
	// views and queries draw down one budget.
	Meter *spill.Meter
}

// Delta is one base relation's signed update: tuples to insert and tuples
// to delete. Within one Apply, inserts are applied before deletes, so a
// tuple inserted and deleted in the same call nets out. Deleting a tuple
// absent from the base relation removes nothing (it is counted in
// ApplyResult.Unmatched).
type Delta struct {
	Rel    int // base relation leaf index (jointree numbering)
	Insert []relation.Tuple
	Delete []relation.Tuple
}

// ApplyResult summarizes one maintenance round.
type ApplyResult struct {
	Inserted   int   // base tuples injected as inserts
	Deleted    int   // base tuples injected as deletes
	Unmatched  int64 // base deletes that matched no resident tuple
	Changes    int   // signed changes to the result multiset this round
	ResultCard int   // result multiset size after the round
}

// Change is one signed result-tuple change emitted by a view round.
type Change struct {
	Tuple relation.Tuple
	Sign  int8 // +1 insert, -1 delete
}

// node is one resident join-operator instance: a goroutine owning the two
// operand hash tables of its fragment.
type node struct {
	spec     hashjoin.Spec
	tables   [2]*hashjoin.Table // indexed by operator.Build, operator.Probe
	in       chan operator.Msg
	expect   int // tokens per round: incoming streams
	out      *operator.Outbox
	res      relation.Batch // probe-result scratch
	fdel     relation.Batch // found-deletes scratch
	heads    []int32
	resident atomic.Int64 // table bytes, updated before the round's tokens
}

// scanPort is the injection point for one base relation: Apply routes
// delta tuples straight into the scan's consumer edge, standing in for all
// of the scan's processes (scans hold no state, so they need no goroutine).
type scanPort struct {
	leaf   int
	out    *operator.Outbox
	tokens int // end-of-round tokens per destination instance
}

type roundResult struct {
	changes int
	card    int
}

// collector owns the result multiset and the change-stream subscribers.
type collector struct {
	v        *View
	in       chan operator.Msg
	expect   int
	counts   map[relation.Tuple]int64
	card     int
	changes  int // signed changes in the current round
	resident atomic.Int64

	subMu      sync.Mutex
	subs       []*ChangeStream
	subsClosed bool
}

// View is a continuously maintained materialization of one query: the
// resident join network plus the collected result multiset. Apply, Rows,
// Changes and Close are safe for concurrent use; one Apply runs at a time.
type View struct {
	cfg   Config
	batch int
	pool  *relation.BatchPool

	nodes    []*node
	scans    map[int]*scanPort
	scanList []*scanPort
	coll     *collector
	inject   relation.Batch // Apply's staging buffer for delta tuples

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	roundDone chan roundResult
	unmatched atomic.Int64

	mu      sync.Mutex // serializes rounds, snapshots and subscriptions
	charged int64      // bytes currently charged to cfg.Meter

	closeOnce sync.Once
}

// New compiles plan into a resident maintenance network, populates it with
// the base relations (one all-inserts round through the same delta path),
// and returns the live view. base resolves each scan leaf to its relation,
// exactly as the executing runtimes receive it. Close the view to release
// its goroutines, tables, and meter charge.
func New(plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config) (*View, error) {
	if plan == nil {
		return nil, errors.New("ivm: nil plan")
	}
	w, err := operator.Wire(plan)
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	for _, n := range w.Nodes {
		if n.Op.Kind == xra.OpScan && base(n.Op.Leaf) == nil {
			return nil, fmt.Errorf("ivm: no base relation for leaf %d", n.Op.Leaf)
		}
	}
	w.Estimate(func(leaf int) int { return base(leaf).Card() })
	batch := cfg.BatchTuples
	if batch <= 0 {
		batch = DefaultBatchTuples
	}
	if batch > relation.MaxBlockTuples {
		batch = relation.MaxBlockTuples
	}
	if cfg.TupleBytes <= 0 {
		cfg.TupleBytes = relation.TupleWireBytes
	}
	v := &View{
		cfg:       cfg,
		batch:     batch,
		pool:      relation.NewBatchPool(batch, poolRetain),
		scans:     make(map[int]*scanPort),
		roundDone: make(chan roundResult, 1),
	}
	v.ctx, v.cancel = context.WithCancel(context.Background())

	// One inbox per join and collect process, sized for a round's tokens
	// plus in-flight data; every producer of an edge shares its consumer's.
	inboxes := make([]*operator.Chans, len(w.Nodes))
	for i, n := range w.Nodes {
		if n.Op.Kind == xra.OpScan {
			continue
		}
		c := &operator.Chans{Dst: make([]chan<- operator.Msg, len(n.Op.Procs)), Done: v.ctx.Done(), Pool: v.pool}
		inboxes[i] = c
		for idx := range c.Dst {
			in := make(chan operator.Msg, 2*n.InStreams()+8)
			c.Dst[idx] = in
			if n.Op.Kind == xra.OpCollect {
				v.coll = &collector{v: v, in: in, expect: n.InStreams(), counts: make(map[relation.Tuple]int64)}
				continue
			}
			nd := &node{spec: hashjoin.Spec{BuildIsLower: n.Op.BuildIsLower}, in: in, expect: n.InStreams()}
			nd.tables[operator.Build] = hashjoin.NewTableSized(nd.spec.BuildAttr(), n.TableHint())
			nd.tables[operator.Probe] = hashjoin.NewTableSized(nd.spec.ProbeAttr(), n.TableHint())
			v.nodes = append(v.nodes, nd)
		}
	}
	// Outboxes, once every inbox exists. Join outputs always redistribute,
	// so a process's destinations are exactly its consumer's inboxes.
	joins := 0
	for _, n := range w.Nodes {
		switch n.Op.Kind {
		case xra.OpScan:
			sp := &scanPort{
				leaf:   n.Op.Leaf,
				out:    operator.NewSourceOutbox(n, v.pool, batch, inboxes[n.Out.To.Index]),
				tokens: n.Out.To.EOSWant(n.Out.Port),
			}
			v.scans[sp.leaf] = sp
			v.scanList = append(v.scanList, sp)
		case xra.OpSimpleJoin, xra.OpPipeJoin:
			for idx := range n.Op.Procs {
				v.nodes[joins].out = operator.NewOutbox(n, idx, v.pool, batch, inboxes[n.Out.To.Index])
				joins++
			}
		}
	}

	for _, n := range v.nodes {
		v.wg.Add(1)
		go v.runNode(n)
	}
	v.wg.Add(1)
	go v.coll.run()

	// Initial population: every base tuple as an insert, through the very
	// code path deltas take.
	boot := make([]Delta, 0, len(v.scanList))
	for _, sp := range v.scanList {
		boot = append(boot, Delta{Rel: sp.leaf, Insert: base(sp.leaf).Tuples})
	}
	v.mu.Lock()
	_, err = v.round(context.Background(), boot)
	v.mu.Unlock()
	if err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

func (v *View) runNode(n *node) {
	defer v.wg.Done()
	defer n.tables[0].Release()
	defer n.tables[1].Release()
	got := 0
	for {
		select {
		case m := <-n.in:
			if m.Batch == nil {
				got++
				if got < n.expect {
					continue
				}
				got = 0
				// Publish resident bytes before the tokens: the sends
				// happen-before the collector's round completion, so the
				// Apply that reads them sees this round's figures.
				n.resident.Store(n.tables[0].MemBytes() + n.tables[1].MemBytes())
				if !n.out.Flush() || !n.out.Punctuate() {
					return
				}
				continue
			}
			if !n.handle(v, m) {
				return
			}
		case <-v.ctx.Done():
			return
		}
	}
}

// handle processes one signed batch: deletes first retract from this
// side's table (rows that matched nothing are dropped — they cannot have
// contributed downstream), then the surviving rows probe the opposite
// side's table and the matches propagate with the batch's sign; inserts
// probe first and then extend this side's table. Probe-then-update order
// is immaterial because the two tables index different operands.
func (n *node) handle(v *View, m operator.Msg) bool {
	b := m.Batch
	own := n.tables[m.Port]
	if m.Sign < 0 {
		n.fdel.Reset()
		for i, l := 0, b.Len(); i < l; i++ {
			if own.Delete(b.Tuple(i)) {
				n.fdel.Append(b.U1[i], b.U2[i], b.Check[i])
			} else {
				v.unmatched.Add(1)
			}
		}
		b = &n.fdel
	}
	n.res.Reset()
	if b.Len() > 0 {
		if m.Port == operator.Build {
			n.heads = n.tables[1].ProbeBatchInto(&n.res, b, n.spec.BuildAttr(), n.spec.BuildIsLower, n.heads)
		} else {
			n.heads = n.tables[0].ProbeBatchInto(&n.res, b, n.spec.ProbeAttr(), !n.spec.BuildIsLower, n.heads)
		}
	}
	if m.Sign > 0 {
		own.InsertBatch(m.Batch)
	}
	v.pool.Put(m.Batch)
	return n.out.Emit(&n.res, m.Sign)
}

func (c *collector) run() {
	defer c.v.wg.Done()
	defer c.closeSubs()
	got := 0
	var changes []Change
	for {
		select {
		case m := <-c.in:
			if m.Batch == nil {
				got++
				if got < c.expect {
					continue
				}
				got = 0
				c.resident.Store(int64(len(c.counts)) * collEntryBytes)
				r := roundResult{changes: c.changes, card: c.card}
				c.changes = 0
				if !c.push(changes) {
					return
				}
				changes = nil
				select {
				case c.v.roundDone <- r:
				case <-c.v.ctx.Done():
					return
				}
				continue
			}
			b := m.Batch
			wantChanges := c.hasSubs()
			for i, n := 0, b.Len(); i < n; i++ {
				t := b.Tuple(i)
				cnt := c.counts[t] + int64(m.Sign)
				if cnt == 0 {
					delete(c.counts, t)
				} else {
					c.counts[t] = cnt
				}
				c.card += int(m.Sign)
				if wantChanges {
					changes = append(changes, Change{Tuple: t, Sign: m.Sign})
				}
			}
			c.changes += b.Len()
			c.v.pool.Put(b)
		case <-c.v.ctx.Done():
			return
		}
	}
}

func (c *collector) hasSubs() bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return len(c.subs) > 0
}

// push hands the round's change batch to every subscriber, blocking until
// each accepts it (slow consumers backpressure Apply) or closes.
func (c *collector) push(changes []Change) bool {
	if len(changes) == 0 {
		return true
	}
	c.subMu.Lock()
	subs := append([]*ChangeStream(nil), c.subs...)
	c.subMu.Unlock()
	for _, s := range subs {
		select {
		case s.ch <- changes:
		case <-s.quit:
			c.dropSub(s)
		case <-c.v.ctx.Done():
			return false
		}
	}
	return true
}

func (c *collector) dropSub(s *ChangeStream) {
	c.subMu.Lock()
	for i, x := range c.subs {
		if x == s {
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			break
		}
	}
	c.subMu.Unlock()
}

func (c *collector) closeSubs() {
	c.subMu.Lock()
	c.subsClosed = true
	for _, s := range c.subs {
		close(s.ch)
	}
	c.subs = nil
	c.subMu.Unlock()
}

// ChangeStream is a cursor over the view's signed result changes, one
// round's batch at a time — the change-stream counterpart of the engine's
// Rows contract (Next / Change / Close).
type ChangeStream struct {
	ch   chan []Change
	quit chan struct{}
	cur  []Change
	idx  int
	once sync.Once
}

// Next advances to the next change, blocking for the next round when the
// current batch is drained. It returns false once the stream or the view
// is closed.
func (s *ChangeStream) Next() bool {
	s.idx++
	if s.idx < len(s.cur) {
		return true
	}
	for {
		select {
		case batch, ok := <-s.ch:
			if !ok {
				return false
			}
			if len(batch) == 0 {
				continue
			}
			s.cur, s.idx = batch, 0
			return true
		case <-s.quit:
			return false
		}
	}
}

// Change returns the change the last successful Next advanced to.
func (s *ChangeStream) Change() Change { return s.cur[s.idx] }

// Close unsubscribes the stream; a blocked Next returns false.
func (s *ChangeStream) Close() { s.once.Do(func() { close(s.quit) }) }

// Changes subscribes a new change stream. Every round that starts after the
// subscription delivers all of its signed result changes to it: like Rows,
// Changes waits out an Apply in flight, so a stream never begins in the
// middle of a round. A subscriber that stops consuming backpressures Apply
// (close the stream instead of abandoning it). On a closed view the stream
// reports no changes.
func (v *View) Changes() *ChangeStream {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := &ChangeStream{ch: make(chan []Change, 4), quit: make(chan struct{}), idx: -1}
	c := v.coll
	c.subMu.Lock()
	if c.subsClosed {
		close(s.ch)
	} else {
		c.subs = append(c.subs, s)
	}
	c.subMu.Unlock()
	return s
}

// Apply runs one maintenance round: every delta's inserts, then every
// delta's deletes, are routed into the network, the round is fenced with
// tokens, and Apply returns once the collector holds the exact new result.
// ctx aborts the wait — but a round already in flight cannot be unwound,
// so an aborted Apply tears the view down.
func (v *View) Apply(ctx context.Context, deltas ...Delta) (ApplyResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ctx.Err() != nil {
		return ApplyResult{}, ErrViewClosed
	}
	for _, d := range deltas {
		if _, ok := v.scans[d.Rel]; !ok {
			return ApplyResult{}, fmt.Errorf("ivm: delta for unknown base relation %d", d.Rel)
		}
	}
	return v.round(ctx, deltas)
}

// round injects deltas and waits for the quiescence barrier. Callers hold
// v.mu.
func (v *View) round(ctx context.Context, deltas []Delta) (ApplyResult, error) {
	var out ApplyResult
	for _, d := range deltas {
		if !v.emit(v.scans[d.Rel], d.Insert, operator.Insert) {
			return out, ErrViewClosed
		}
		out.Inserted += len(d.Insert)
	}
	for _, d := range deltas {
		if !v.emit(v.scans[d.Rel], d.Delete, operator.Delete) {
			return out, ErrViewClosed
		}
		out.Deleted += len(d.Delete)
	}
	for _, sp := range v.scanList {
		ok := sp.out.Flush()
		for t := 0; ok && t < sp.tokens; t++ {
			ok = sp.out.Punctuate()
		}
		if !ok {
			return out, ErrViewClosed
		}
	}
	select {
	case r := <-v.roundDone:
		out.Changes = r.changes
		out.ResultCard = r.card
	case <-ctx.Done():
		// The round is mid-flight and cannot be unwound; the view can no
		// longer tell a complete state from a truncated one.
		v.cancel()
		return out, ctx.Err()
	case <-v.ctx.Done():
		return out, ErrViewClosed
	}
	out.Unmatched = v.unmatched.Swap(0)
	v.recharge()
	return out, nil
}

// emit routes one relation's tuples into the scan's consumer edge, a
// transport batch at a time.
func (v *View) emit(sp *scanPort, tuples []relation.Tuple, sign int8) bool {
	for lo := 0; lo < len(tuples); lo += v.batch {
		v.inject.Reset()
		v.inject.AppendTuples(tuples[lo:min(lo+v.batch, len(tuples))])
		if !sp.out.Emit(&v.inject, sign) {
			return false
		}
	}
	return true
}

// recharge re-measures resident bytes and charges the meter with the
// difference. Callers hold v.mu, after a completed round (the nodes'
// figures happen-before the collector's round completion).
func (v *View) recharge() {
	total := v.coll.resident.Load()
	for _, n := range v.nodes {
		total += n.resident.Load()
	}
	if d := total - v.charged; d != 0 {
		if v.cfg.Meter != nil {
			v.cfg.Meter.Add(d)
		}
		v.charged = total
	}
}

// Rows materializes the current result multiset. The snapshot is exact:
// it reflects every Apply that returned and nothing in flight.
func (v *View) Rows() (*relation.Relation, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ctx.Err() != nil {
		return nil, ErrViewClosed
	}
	c := v.coll
	rel := relation.NewWithCap("view", v.cfg.TupleBytes, c.card)
	for t, n := range c.counts {
		for ; n > 0; n-- {
			rel.Append(t)
		}
	}
	return rel, nil
}

// ResultCard returns the current result multiset size.
func (v *View) ResultCard() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.coll.card
}

// Resident returns the bytes currently charged for the view's resident
// state (hash tables plus result multiset).
func (v *View) Resident() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.charged
}

// Close tears the network down: goroutines exit, hash-table arenas are
// recycled, subscribers' streams end, and the meter charge is released.
// Close is idempotent and unblocks a concurrent Apply (which reports
// ErrViewClosed).
func (v *View) Close() error {
	v.closeOnce.Do(func() {
		v.cancel()
		v.wg.Wait()
		v.mu.Lock()
		if v.charged != 0 {
			if v.cfg.Meter != nil {
				v.cfg.Meter.Add(-v.charged)
			}
			v.charged = 0
		}
		v.mu.Unlock()
	})
	return nil
}
