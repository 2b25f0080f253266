package parallel

import (
	"context"
	"fmt"
	"sync/atomic"

	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// Resident is a plan's join network kept alive between rounds of signed
// input: the process model of a materialized view. Its join processes are
// hosts like a query's, on the same slots, but every one starts symmetric
// and treats punctuation as the end of a round. The scans are not launched
// — Inject stands in for them — and neither is the collect: its inbox is
// the caller's to drain (Collected). Inject, EndRound, Round and Result are
// for one goroutine at a time.
type Resident struct {
	r         *runtimeState
	sources   map[int]*operator.Outbox // by scan leaf: the scan's consumer edge
	stage     relation.Batch           // Inject's staging buffer
	tables    atomic.Int64             // the hosts' table bytes, as of their last round's end
	unmatched atomic.Int64             // deletions that matched nothing, since the last Round
}

// RunResident starts plan's join processes as resident hosts and returns
// the running network. base is read for the relations' cardinalities only:
// the network starts empty, and the caller populates it through Inject. The
// hosts take their slots on cfg.Pool (or on a pool of the network's own
// with cfg.MaxProcs slots) and draw batches from its resident pools; After
// dependencies are moot, since every join is symmetric. The network runs
// until ctx is cancelled or Close is called. A resident network runs in
// memory on one node: cfg.Partial and cfg.Meter are ignored.
func RunResident(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config) (*Resident, error) {
	cfg.Meter, cfg.Partial = nil, nil
	r, err := newRuntime(plan, cfg)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	s := &Resident{r: r, sources: make(map[int]*operator.Outbox)}
	r.resident = s
	if err := r.build(base); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	r.arm(ctx)
	for _, os := range r.ops {
		if k := os.Op.Kind; k == xra.OpSimpleJoin || k == xra.OpPipeJoin {
			for _, h := range os.hosts {
				r.wg.Add(1)
				go h.run()
			}
		}
	}
	return s, nil
}

// Has reports whether leaf is a base relation the plan scans.
func (s *Resident) Has(leaf int) bool { return s.sources[leaf] != nil }

// Inject routes tuples with one sign into the consumer edge of leaf's scan,
// a transport batch at a time. It reports false once the network is closed.
func (s *Resident) Inject(leaf int, tuples []relation.Tuple, sign int8) bool {
	o, bt := s.sources[leaf], s.r.cfg.BatchTuples
	for lo := 0; lo < len(tuples); lo += bt {
		s.stage.Reset()
		s.stage.AppendTuples(tuples[lo:min(lo+bt, len(tuples))])
		if !o.Emit(&s.stage, sign) {
			return false
		}
	}
	return true
}

// EndRound ends the round on every scan edge: the injected tuples are
// flushed and every consumer process gets the round's mark. The round has
// gone through the network once the collect input has seen its marks.
func (s *Resident) EndRound() bool {
	for _, o := range s.sources {
		if !(o.Flush() && o.Punctuate()) {
			return false
		}
	}
	return true
}

// Collected returns the collect process's inbox, which the caller drains:
// signed result batches (return each with Release) and, per round, marks
// punctuation marks.
func (s *Resident) Collected() (in <-chan operator.Msg, marks int) {
	c := s.r.ops[s.r.wiring.Collect.Index].hosts[0]
	return c.inbox, c.join.Marks()
}

// Release returns a batch drained from the collect inbox to its pool.
func (s *Resident) Release(b *relation.Batch) { s.r.putBatch(b) }

// Round reports the size of the network's tables at the end of the last
// round and the deletions that matched nothing since the previous call.
// Call it after the collect input has seen the round's marks: every host
// published both before forwarding them.
func (s *Resident) Round() (tableBytes, unmatched int64) {
	return s.tables.Load(), s.unmatched.Swap(0)
}

// Result appends the network's result multiset to rel: the join of each
// top-join host's two tables. Call it between rounds, like Round, and
// not concurrently with Close, which releases the tables; the hosts leave
// them to Close, so a Result that ends before Close starts is safe even
// once the network is cancelled.
func (s *Resident) Result(rel *relation.Relation) {
	for _, h := range s.r.ops[s.r.wiring.Collect.In[operator.In].Index].hosts {
		h.join.AppendResult(rel)
	}
}

// Close stops the network, waits for every host to exit and releases the
// hosts' tables. Batches still in the inboxes are left to the garbage
// collector.
func (s *Resident) Close() {
	s.r.cancel(nil)
	s.r.wg.Wait()
	for _, os := range s.r.ops {
		for _, h := range os.hosts {
			h.join.Reset()
		}
	}
}
