// Plan cache: memoized strategy.Plan output for the Engine's repeated
// query shapes.
//
// Planning a query is pure — the plan depends only on the join tree's
// canonical shape, the strategy, the processor count, and the operand
// cardinalities — yet every Engine.Query used to re-run it from scratch,
// which on a serving workload means re-planning the same handful of shapes
// thousands of times. The cache keys plans by that canonical shape (with
// cardinalities bucketed to powers of two, so minor data growth does not
// fragment the cache) and is concurrency-safe with singleflight semantics:
// N identical queries arriving together plan exactly once, the rest wait
// for the winner's entry. Cached plans are shared between concurrent runs;
// that is safe because plans are immutable after strategy.Plan returns —
// every runtime treats xra.Op as read-only.
package core

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"multijoin/internal/jointree"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// planCacheMaxEntries bounds the cache. A serving workload has a handful of
// shapes; a fuzzer has millions — on overflow settled entries are dropped
// wholesale (simple, and correct for a cache) rather than evicted
// piecemeal. Entries still mid-planning survive the reset: dropping one
// would let a concurrent same-key caller re-plan behind the waiters'
// backs, double-running the singleflight.
const planCacheMaxEntries = 1024

// planEntry is one memoized planning: the first caller runs the plan under
// once, every later caller waits on it. done flips after the planning
// completed, so an overflow reset can tell settled entries (droppable)
// from in-flight ones (which concurrent same-key callers are waiting on).
type planEntry struct {
	once sync.Once
	done atomic.Bool
	plan *xra.Plan
	err  error
}

// planCache memoizes Query.Plan results by canonical query shape.
type planCache struct {
	planFn func(Query) (*xra.Plan, error) // Query.Plan; injectable for churn tests
	mu     sync.Mutex
	m      map[string]*planEntry
	hits   atomic.Int64
	misses atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{
		planFn: func(q Query) (*xra.Plan, error) { return q.Plan() },
		m:      make(map[string]*planEntry),
	}
}

// planKey renders the canonical shape of a query: the join tree with its
// ids (two trees with different JoinIDs yield different plan operator ids,
// so the ids are part of the shape) and each leaf's cardinality bucketed to
// the next power of two, the strategy, the processor budget and the
// cost-function toggle. Queries differing only within a cardinality bucket
// share a plan — processor allocation is proportional, so sub-2×
// differences do not change it materially.
func planKey(q Query) string {
	b := appendShape(make([]byte, 0, 256), q.Tree, q.DB)
	b = strconv.AppendInt(append(b, "|s"...), int64(q.Strategy), 10)
	b = strconv.AppendInt(append(b, "|p"...), int64(q.Procs), 10)
	b = strconv.AppendBool(append(b, "|eq"...), q.EqualWork)
	return string(b)
}

// appendShape appends tree n in one walk: a leaf as R<leaf>c<card bucket>,
// a join as (J<id> <build> <probe>).
func appendShape(b []byte, n *jointree.Node, db *wisconsin.Database) []byte {
	switch {
	case n == nil:
		return append(b, "<nil>"...)
	case n.IsLeaf():
		b = strconv.AppendInt(append(b, 'R'), int64(n.Leaf), 10)
		return strconv.AppendInt(append(b, 'c'), int64(cardBucket(db.Card(n.Leaf))), 10)
	}
	b = strconv.AppendInt(append(b, "(J"...), int64(n.JoinID), 10)
	b = appendShape(append(b, ' '), n.Build, db)
	b = appendShape(append(b, ' '), n.Probe, db)
	return append(b, ')')
}

// cardBucket buckets a cardinality to its power-of-two ceiling exponent.
func cardBucket(card int) int {
	if card <= 1 {
		return 0
	}
	return bits.Len(uint(card - 1))
}

// plan returns the memoized plan for q, planning it on a miss. hit reports
// whether an already-built (or in-flight) entry served the call; exactly
// one caller per key ever runs q.Plan (singleflight), so a stampede of
// identical concurrent queries plans once. Planning errors are cached too:
// a structurally invalid shape fails every time for the same reason.
func (c *planCache) plan(q Query) (p *xra.Plan, hit bool, err error) {
	if q.Tree == nil || q.DB == nil {
		// planKey needs both to render the shape; bypass the cache and let
		// Query.Plan report the contract error instead of segfaulting.
		_, err := c.planFn(q)
		return nil, false, err
	}
	key := planKey(q)
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		if len(c.m) >= planCacheMaxEntries {
			fresh := make(map[string]*planEntry)
			for k, pe := range c.m {
				if !pe.done.Load() {
					fresh[k] = pe
				}
			}
			c.m = fresh
		}
		e = &planEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.plan, e.err = c.planFn(q)
		e.done.Store(true)
	})
	return e.plan, ok, e.err
}

// Stats returns the cumulative hit and miss counts.
func (c *planCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
