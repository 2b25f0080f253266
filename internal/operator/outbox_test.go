package operator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/xra"
)

// rowRouter is the reference outbox: its contract spelled out one row-form
// tuple at a time. A tuple of process hosted[k] goes to the consumer process
// of the same index on a local edge and to the process its key hashes to on
// a redistribution; a destination's lane is delivered when it holds size
// tuples, after any pending insert for the same destination (the ordering
// rule).
type rowRouter struct {
	n                      *Node
	hosted                 []int
	size                   int
	pend                   [2][][]relation.Tuple
	got                    []delivery
	local, remote, batches int64
}

func newRowRouter(n *Node, hosted []int, size int) *rowRouter {
	r := &rowRouter{n: n, hosted: hosted, size: size}
	dests := n.Out.Dests()
	if n.Out.Local {
		dests = len(hosted)
	}
	for lane := range r.pend {
		r.pend[lane] = make([][]relation.Tuple, dests)
	}
	return r
}

func (r *rowRouter) target(d int) int {
	if r.n.Out.Local {
		return r.hosted[d]
	}
	return d
}

func (r *rowRouter) counted() bool { return r.n.Out.To.Op.Kind != xra.OpCollect }

func (r *rowRouter) header(d int) delivery {
	t := r.target(d)
	remote := len(r.hosted) == 1 && r.n.Out.To.Op.Procs[t] != r.n.Op.Procs[r.hosted[0]]
	return delivery{To: int32(t), Port: r.n.Out.Port, Remote: remote}
}

func (r *rowRouter) emit(k int, b *relation.Batch, sign int8) {
	lane := 0
	if sign < 0 {
		lane = 1
	}
	keys := b.Col(r.n.Out.Route)
	for i := range keys {
		d := k
		if !r.n.Out.Local {
			d = relation.HashKey(keys[i], r.n.Out.Dests())
		}
		if r.counted() {
			if r.n.Out.To.Op.Procs[r.target(d)] == r.n.Op.Procs[r.hosted[k]] {
				r.local++
			} else {
				r.remote++
			}
		}
		r.pend[lane][d] = append(r.pend[lane][d], b.Tuple(i))
		if len(r.pend[lane][d]) == r.size {
			for l := 0; l <= lane; l++ {
				r.deliver(l, d)
			}
		}
	}
}

func (r *rowRouter) deliver(lane, d int) {
	if len(r.pend[lane][d]) == 0 {
		return
	}
	m := r.header(d)
	m.Sign, m.Tuples = Insert, r.pend[lane][d]
	if lane == 1 {
		m.Sign = Delete
	}
	r.got = append(r.got, m)
	r.pend[lane][d] = nil
	if r.counted() {
		r.batches++
	}
}

func (r *rowRouter) flush() {
	for lane := range r.pend {
		for d := range r.pend[lane] {
			r.deliver(lane, d)
		}
	}
}

func (r *rowRouter) punctuate() {
	for d := range r.pend[0] {
		r.got = append(r.got, r.header(d))
	}
}

// TestOutboxMatchesRowRouting is the differential test of the outbox against
// the row-at-a-time reference: random results of 1–600 tuples, insert and
// delete lanes interleaved, Flush and Punctuate mid-stream, buffers that
// start at the transport size and buffers that start below it and grow
// through the shared pools, on a redistribution — a shared host outbox and
// a single process's — and on a local edge. Every run delivers the same
// messages — addressee, port, remote mark, sign and tuples, in order — and
// ends with the same transport counters, and every batch it delivers is
// consistent: its three columns of one length, at most the transport size.
func TestOutboxMatchesRowRouting(t *testing.T) {
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 4, 8)
	var redist, local *Node
	for _, n := range w.Nodes {
		switch {
		case n.Out == nil || n.Out.To.Op.Kind == xra.OpCollect || len(n.Op.Procs) != 8:
		case n.Out.Local:
			local = n
		case n.Out.Dests() == 8:
			redist = n
		}
	}
	if redist == nil || local == nil {
		t.Fatal("plan has no eight-process producer on a local edge or redistributing to eight processes")
	}
	edges := []struct {
		name   string
		n      *Node
		hosted []int // nil: the outbox of process 5 alone
	}{
		{"redistribution/host", redist, []int{0, 2, 3, 6}},
		{"redistribution/process", redist, nil},
		{"local edge", local, nil},
	}
	for _, e := range edges {
		for _, sz := range []struct{ size, start int }{{100, 16}, {64, 64}} {
			for _, seed := range []int64{1, 7, 1995} {
				t.Run(fmt.Sprintf("%s/size %d from %d/seed %d", e.name, sz.size, sz.start, seed), func(t *testing.T) {
					sink := &consumer{put: func(b *relation.Batch) {
						if b.Len() != len(b.U2) || b.Len() != len(b.Check) || b.Len() > sz.size {
							t.Errorf("delivered a batch of columns %d, %d, %d tuples, transport size %d", len(b.U1), len(b.U2), len(b.Check), sz.size)
						}
						relation.PutShared(b)
					}}
					o, hosted := (*Outbox)(nil), e.hosted
					if hosted == nil {
						o, hosted = NewOutbox(e.n, 5, relation.SharedPool(sz.start), sz.size, sink), []int{5}
					} else {
						o = NewHostOutbox(e.n, hosted, relation.SharedPool(sz.start), sz.size, sink)
					}
					ref := newRowRouter(e.n, hosted, sz.size)
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						var res relation.Batch
						for j := 1 + rng.Intn(600); j > 0; j-- {
							k := rng.Int63n(1 << 20)
							res.Append(k, k^0x5a5a, uint64(len(res.U1)+1000*i))
						}
						sign := Insert
						if rng.Intn(3) == 0 {
							sign = Delete
						}
						k := rng.Intn(len(hosted))
						if !o.EmitFrom(k, &res, sign) {
							t.Fatal("EmitFrom failed")
						}
						ref.emit(k, &res, sign)
						if rng.Intn(8) == 0 {
							if !(o.Flush() && o.Punctuate()) {
								t.Fatal("Flush/Punctuate failed")
							}
							ref.flush()
							ref.punctuate()
						}
					}
					if !(o.Flush() && o.Punctuate()) {
						t.Fatal("Flush/Punctuate failed")
					}
					ref.flush()
					ref.punctuate()
					if len(sink.got) != len(ref.got) {
						t.Fatalf("%d messages, the reference %d", len(sink.got), len(ref.got))
					}
					for i := range ref.got {
						if g, r := sink.got[i], ref.got[i]; g.To != r.To || g.Port != r.Port || g.Remote != r.Remote || g.Sign != r.Sign || !slices.Equal(g.Tuples, r.Tuples) {
							t.Fatalf("message %d: To %d Port %d Remote %v Sign %d, %d tuples; the reference's To %d Port %d Remote %v Sign %d, %d tuples",
								i, g.To, g.Port, g.Remote, g.Sign, len(g.Tuples), r.To, r.Port, r.Remote, r.Sign, len(r.Tuples))
						}
					}
					if g, r := [3]int64{o.MovedLocal, o.MovedRemote, o.Batches}, [3]int64{ref.local, ref.remote, ref.batches}; g != r {
						t.Errorf("local, remote, batches %v; the reference's %v", g, r)
					}
				})
			}
		}
	}
}

// pooledSink is a Deliverer that hands every batch back to its pool at once,
// as a consumer that applies it would.
type pooledSink struct{ pool *relation.BatchPool }

func (s pooledSink) Deliver(_ int, m Msg) bool {
	s.pool.Put(m.Batch)
	return true
}

// scatterOutbox returns the outbox of a producer of RD on left-linear ten
// relations at 40 processors — a host outbox serving processes 0–19 of a
// join redistributing to 40 processes, or the outbox of a scan's process 0
// on its local edge — with a warm pool of size-tuple batches behind a sink
// that returns them.
func scatterOutbox(t testing.TB, local bool, size int) *Outbox {
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 10, 40)
	pool := relation.NewBatchPool(size, 256)
	for _, n := range w.Nodes {
		switch {
		case n.Out == nil || n.Out.Local != local:
		case local:
			return NewOutbox(n, 0, pool, size, pooledSink{pool})
		case n.Out.Dests() == 40 && n.Op.Kind == xra.OpSimpleJoin:
			hosted := make([]int, 20)
			for i := range hosted {
				hosted[i] = i
			}
			return NewHostOutbox(n, hosted, pool, size, pooledSink{pool})
		}
	}
	t.Fatal("plan has no such producer")
	return nil
}

// scatterResults returns results of 512 tuples with random keys.
func scatterResults() []*relation.Batch {
	rng := rand.New(rand.NewSource(1995))
	results := make([]*relation.Batch, 16)
	for i := range results {
		results[i] = relation.NewBatch(512)
		for j := 0; j < 512; j++ {
			k := rng.Int63n(1 << 30)
			results[i].Append(k, k, uint64(j))
		}
	}
	return results
}

// TestScatterAllocFree: in steady state a redistribution scatter on a host
// outbox with a warm pool allocates nothing.
func TestScatterAllocFree(t *testing.T) {
	o, results := scatterOutbox(t, false, 256), scatterResults()
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		o.EmitFrom(i%20, results[i%len(results)], Insert)
		i++
	}); n != 0 {
		t.Errorf("a scatter of %d tuples allocates %v times, want 0", results[0].Len(), n)
	}
}

// BenchmarkOutboxScatter measures EmitFrom per emitted tuple: 512-tuple
// results with random keys from a host outbox of 20 processes,
// redistributed over 40 (the scatter), and the copy of one process's
// results on a local edge, both into a pool-backed sink.
func BenchmarkOutboxScatter(b *testing.B) {
	for _, c := range []struct {
		name  string
		local bool
	}{{"redistribution", false}, {"local edge", true}} {
		b.Run(c.name, func(b *testing.B) {
			o, results := scatterOutbox(b, c.local, 256), scatterResults()
			k := 0
			for i := 0; b.Loop(); i++ {
				if !c.local {
					k = i % 20
				}
				o.EmitFrom(k, results[i%len(results)], Insert)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/tuple")
		})
	}
}
