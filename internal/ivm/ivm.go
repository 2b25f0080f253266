// Package ivm maintains materialized views incrementally over the
// pipelining join network.
//
// The paper's FP strategy already is a dataflow of long-lived join
// processes: tuples stream through symmetric pipelining hash-joins, and
// both operand tables of every join are resident when the last tuple
// arrives. A view keeps that network alive after the initial run instead of
// tearing it down, and feeds it *deltas*: signed base-relation updates
// (insert/delete) that propagate through the same streams, each process
// probing the opposite operand's resident table and retracting or extending
// its own. The classic multiset-delta identity makes one pass exact:
// applying ±t to one operand changes the join result by exactly ±(t ⋈ other
// operand's current state), so eager per-tuple processing at processes that
// each own their tables — in any arrival order the streams allow —
// telescopes to the correct new result. This is how Berkholz, Keppeler and
// Schweikardt ("Answering FO+MOD queries under updates on bounded degree
// databases", PAPERS.md) treat a maintained query: the same evaluation, fed
// updates. A query is then the special case of a view whose only round is
// all inserts.
//
// The network is not this package's: it is package parallel's hosts in
// resident mode (parallel.RunResident), on the same processor slots as the
// queries, running the kernel's signed join step (operator.Join) and
// outbox, whose ordering rule keeps a retraction behind the insertion it
// cancels. What is left here is the view's: staging rounds, the collector
// that counts the round's result changes, change streams, and metering its
// residency.
//
// The view keeps no copy of its result. Both operand tables of the top join
// stay resident, so by the same delta identity its result is the join of
// those two tables, which Rows computes on demand (parallel.Resident.Result).
//
// Rounds are separated by a punctuation barrier: one Apply injects its
// delta through every scan edge, then sends one end-of-round mark down
// every stream of the plan. A host forwards its marks only after each of
// its processes has collected one per incoming stream — by then, stream
// FIFO order guarantees it has processed and forwarded all of its round
// input — so the collector holding every mark implies every table is exact
// for the round. The collector then reports the round's change count,
// publishes the changes to subscribed change streams (View.Changes), and
// releases the waiting Apply. Each host wrote its tables before it
// forwarded its marks, and the marks, the collector, Apply's return and
// the view's lock order those writes before any Rows that follows; Close
// takes the lock before it releases the tables.
//
// Where a view sits relative to Berkholz et al.'s tractability boundary:
// they maintain queries in constant time per update on databases of
// bounded degree, where no value occurs in more than a constant number of
// tuples. A view here is a join-only query, and the Wisconsin chain keys
// occur once per relation, so every join has degree 1: a view sits in the
// bounded-degree class, and each delta tuple costs at most one probe per
// join on its path to the collector, whatever the base relations' size.
// Deltas that repeat a key raise the degree, and with it the matches one
// probe can yield.
//
// Resident state — two hash tables per join process, at their exact bytes —
// is measured after every round and charged to the configured spill.Meter,
// so views compete for the same memory budget as queries.
package ivm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"multijoin/internal/operator"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// ErrViewClosed is returned by Apply/Rows on a closed (or torn-down) view.
var ErrViewClosed = errors.New("ivm: view is closed")

// Config parameterizes a view.
type Config struct {
	// TupleBytes is the declared tuple width of Rows snapshots (zero:
	// relation.TupleWireBytes).
	TupleBytes int
	// Meter, when set, is charged with the view's resident bytes — its
	// join tables, which hold the result too — re-measured after every
	// round and released on Close. Pass a child of the engine's shared
	// meter so views and queries draw down one budget.
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

type roundResult struct {
	changes int
	card    int
}

// collector counts the result changes and owns the change-stream
// subscribers.
type collector struct {
	v       *View
	in      <-chan operator.Msg
	expect  int
	card    int // the result multiset's size
	changes int // signed changes in the current round

	subMu      sync.Mutex
	subs       []*ChangeStream
	subsClosed bool
}

// View is a continuously maintained materialization of one query: the
// resident join network, whose top join's tables hold the result. Apply, Rows,
// Changes and Close are safe for concurrent use; one Apply runs at a time.
type View struct {
	cfg  Config
	net  *parallel.Resident
	coll *collector

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // the collector

	roundDone chan roundResult

	mu      sync.Mutex // serializes rounds, snapshots, subscriptions and Close
	charged int64      // bytes currently charged to cfg.Meter

	closeOnce sync.Once
}

// New starts plan's join processes as a resident network on the hosts of
// package parallel, configured by run like a query's run (slots, batch size,
// inbox depth), populates it with the base relations (one all-inserts round
// through the same delta path), and returns the live view. base resolves
// each scan leaf to its relation, exactly as the executing runtimes receive
// it. Close the view to release its goroutines, tables, and meter charge.
func New(plan *xra.Plan, base func(leaf int) *relation.Relation, run parallel.Config, cfg Config) (*View, error) {
	if plan == nil {
		return nil, errors.New("ivm: nil plan")
	}
	if cfg.TupleBytes <= 0 {
		cfg.TupleBytes = relation.TupleWireBytes
	}
	ctx, cancel := context.WithCancel(context.Background())
	net, err := parallel.RunResident(ctx, plan, base, run)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("ivm: %w", err)
	}
	in, marks := net.Collected()
	v := &View{cfg: cfg, net: net, ctx: ctx, cancel: cancel, roundDone: make(chan roundResult, 1)}
	v.coll = &collector{v: v, in: in, expect: marks}
	v.wg.Add(1)
	go v.coll.run()

	// Initial population: every base tuple as an insert, through the very
	// code path deltas take.
	var boot []Delta
	for _, op := range plan.Ops {
		if op.Kind == xra.OpScan {
			boot = append(boot, Delta{Rel: op.Leaf, Insert: base(op.Leaf).Tuples})
		}
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
			if c.hasSubs() {
				for i, n := 0, b.Len(); i < n; i++ {
					changes = append(changes, Change{Tuple: b.Tuple(i), Sign: m.Sign})
				}
			}
			c.card += int(m.Sign) * b.Len()
			c.changes += b.Len()
			c.v.net.Release(b)
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
// tokens, and Apply returns once the network's tables hold the exact new
// result. A ctx already done fails the call before anything is injected,
// leaving the view as it was. Once the round is in flight ctx still aborts
// the wait, but the round cannot be unwound, so that tears the view down.
func (v *View) Apply(ctx context.Context, deltas ...Delta) (ApplyResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ctx.Err() != nil {
		return ApplyResult{}, ErrViewClosed
	}
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, err
	}
	for _, d := range deltas {
		if !v.net.Has(d.Rel) {
			return ApplyResult{}, fmt.Errorf("ivm: delta for unknown base relation %d", d.Rel)
		}
	}
	return v.round(ctx, deltas)
}

// round injects deltas and waits for the quiescence barrier. Callers hold
// v.mu.
func (v *View) round(ctx context.Context, deltas []Delta) (ApplyResult, error) {
	var out ApplyResult
	ok := true // false once the network was closed under the round
	for _, d := range deltas {
		ok = ok && v.net.Inject(d.Rel, d.Insert, operator.Insert)
		out.Inserted += len(d.Insert)
	}
	for _, d := range deltas {
		ok = ok && v.net.Inject(d.Rel, d.Delete, operator.Delete)
		out.Deleted += len(d.Delete)
	}
	if !ok || !v.net.EndRound() {
		return out, ErrViewClosed
	}
	var r roundResult
	select {
	case r = <-v.roundDone:
	case <-ctx.Done():
		// The round is mid-flight and cannot be unwound; the view can no
		// longer tell a complete state from a truncated one.
		v.cancel()
		return out, ctx.Err()
	case <-v.ctx.Done():
		return out, ErrViewClosed
	}
	tables, unmatched := v.net.Round()
	out.Changes, out.ResultCard, out.Unmatched = r.changes, r.card, unmatched
	v.recharge(tables)
	return out, nil
}

// recharge charges the meter with the difference between total, the
// resident bytes re-measured at the end of a round — the network's tables —
// and what it holds. Callers hold v.mu.
func (v *View) recharge(total int64) {
	if d := total - v.charged; d != 0 {
		if v.cfg.Meter != nil {
			v.cfg.Meter.Add(d)
		}
		v.charged = total
	}
}

// Rows materializes the current result multiset by joining the top join's
// two tables. The snapshot is exact: it reflects every Apply that returned
// and nothing in flight.
func (v *View) Rows() (*relation.Relation, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ctx.Err() != nil {
		return nil, ErrViewClosed
	}
	rel := relation.NewWithCap("view", v.cfg.TupleBytes, v.coll.card)
	v.net.Result(rel)
	return rel, nil
}

// ResultCard returns the current result multiset size.
func (v *View) ResultCard() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.coll.card
}

// Resident returns the bytes currently charged for the view's resident
// state: its join tables' exact bytes.
func (v *View) Resident() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.charged
}

// Close tears the network down: goroutines exit, the hash tables are
// dropped, subscribers' streams end, and the meter charge is released.
// Close is idempotent and unblocks a concurrent Apply (which reports
// ErrViewClosed). It releases the tables only under the view's lock, so a
// Rows in progress finishes reading them first.
func (v *View) Close() error {
	v.closeOnce.Do(func() {
		v.cancel()
		v.mu.Lock()
		v.net.Close()
		v.wg.Wait()
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
