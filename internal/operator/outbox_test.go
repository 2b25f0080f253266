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
// tuple at a time. A tuple goes to the consumer process of its producing
// process's index on a local edge and to the process its key hashes to on
// a redistribution; a redistribution's destination is that process's host
// (dest; the process itself when dest is nil), a local edge has one. A
// destination's lane is delivered when it holds size tuples, after any
// pending insert for the same destination (the ordering rule). A tuple is
// counted local when its producing process and its consumer process share a
// processor.
type rowRouter struct {
	n                      *Node
	hosted                 []int
	dest                   []int32
	size                   int
	pend                   [2][][]relation.Tuple
	got                    []delivery
	local, remote, batches int64
}

func newRowRouter(n *Node, hosted []int, dest []int32, size int) *rowRouter {
	r := &rowRouter{n: n, hosted: hosted, dest: dest, size: size}
	dests := n.Out.Dests()
	if !n.Out.Local && dest != nil {
		dests = int(slices.Max(dest)) + 1
	}
	for lane := range r.pend {
		r.pend[lane] = make([][]relation.Tuple, dests)
	}
	return r
}

func (r *rowRouter) counted() bool { return r.n.Out.To.Op.Kind != xra.OpCollect }

func (r *rowRouter) header(d int) delivery {
	remote := r.dest == nil && len(r.hosted) == 1 && !r.n.Out.Local && r.n.Out.To.Op.Procs[d] != r.n.Op.Procs[r.hosted[0]]
	return delivery{Dest: d, Port: r.n.Out.Port, Remote: remote}
}

// emit routes b, whose row i a process on processor from[i] produced; on a
// local edge every row is process hosted[k]'s.
func (r *rowRouter) emit(k int, from []int, b *relation.Batch, sign int8) {
	lane := 0
	if sign < 0 {
		lane = 1
	}
	keys, cons := b.Col(r.n.Out.Route), r.n.Out.To.Op.Procs
	for i := range keys {
		c, d := r.hosted[k], 0
		if !r.n.Out.Local {
			c = relation.HashKey(keys[i], len(cons))
			d = c
			if r.dest != nil {
				d = int(r.dest[c])
			}
		}
		if r.counted() {
			if cons[c] == from[i] {
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

// slotHosts groups the consumer processes of n's edge the way the goroutine
// runtime does on slots slots: by processor modulo slots, numbered in order
// of first process.
func slotHosts(n *Node, slots int) []int32 {
	cons := n.Out.To.Op.Procs
	dest, bySlot := make([]int32, len(cons)), map[int]int32{}
	for i, p := range cons {
		h, ok := bySlot[p%slots]
		if !ok {
			h = int32(len(bySlot))
			bySlot[p%slots] = h
		}
		dest[i] = h
	}
	return dest
}

// TestOutboxMatchesRowRouting is the differential test of the outbox against
// the row-at-a-time reference: random results of 1–600 tuples, insert and
// delete lanes interleaved, Flush and Punctuate mid-stream, buffers that
// start at the transport size and buffers that start below it and grow
// through the shared pools, on a redistribution — a host outbox to consumer
// hosts of several processes, to a single consumer host and to hosts of one
// process each, and a single process's outbox — and on a local edge, from a
// process and from a host. A host outbox's results come from one hosted
// process (EmitFrom) or, on a redistribution, row by row from any of them
// (EmitTagged). Every run delivers the same messages — addressee, port,
// remote mark, sign and tuples, in order — and ends with the same transport
// counters, and every batch it delivers is consistent: its three columns of
// one length, at most the transport size.
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
		hosted []int   // nil: the outbox of process 5 alone
		dest   []int32 // the consumer processes' hosts
	}{
		{"redistribution/host", redist, []int{0, 2, 3, 6}, slotHosts(redist, 3)},
		{"redistribution/host to one host", redist, []int{0, 2, 3, 6}, make([]int32, 8)},
		{"redistribution/host to processes", redist, []int{1, 4}, []int32{0, 1, 2, 3, 4, 5, 6, 7}},
		{"redistribution/process", redist, nil, nil},
		{"local edge/host", local, []int{1, 5}, slotHosts(local, 4)},
		{"local edge", local, nil, nil},
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
						o = NewHostOutbox(e.n, hosted, e.dest, relation.SharedPool(sz.start), sz.size, sink)
					}
					ref := newRowRouter(e.n, hosted, e.dest, sz.size)
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
						from, tags := make([]int, res.Len()), make([]int32, res.Len())
						k := rng.Intn(len(hosted))
						for j := range from {
							from[j] = e.n.Op.Procs[hosted[k]]
						}
						ok := false
						if len(hosted) > 1 && !e.n.Out.Local && rng.Intn(2) == 0 {
							for j := range from {
								from[j] = e.n.Op.Procs[hosted[rng.Intn(len(hosted))]]
								tags[j] = int32(from[j])
							}
							ok = o.EmitTagged(&res, tags, sign)
						} else {
							ok = o.EmitFrom(k, &res, sign)
						}
						if !ok {
							t.Fatal("emit failed")
						}
						ref.emit(k, from, &res, sign)
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
						if g, r := sink.got[i], ref.got[i]; g.Dest != r.Dest || g.Port != r.Port || g.Remote != r.Remote || g.Sign != r.Sign || !slices.Equal(g.Tuples, r.Tuples) {
							t.Fatalf("message %d: Dest %d Port %d Remote %v Sign %d, %d tuples; the reference's Dest %d Port %d Remote %v Sign %d, %d tuples",
								i, g.Dest, g.Port, g.Remote, g.Sign, len(g.Tuples), r.Dest, r.Port, r.Remote, r.Sign, len(r.Tuples))
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
// join redistributing to 40 processes, which hosts of one process each or
// two hosts of 20 (folded) receive, or the outbox of a scan's process 0 on
// its local edge — with a warm pool of size-tuple batches behind a sink that
// returns them.
func scatterOutbox(t testing.TB, local, folded bool, size int) *Outbox {
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
			slots := 40 // a host of one process each
			if folded {
				slots = 2
			}
			return NewHostOutbox(n, hosted, slotHosts(n, slots), pool, size, pooledSink{pool})
		}
	}
	t.Fatal("plan has no such producer")
	return nil
}

// scatterResults returns results of 512 tuples with random keys, and for
// each row the processor of one of 20 producing processes.
func scatterResults() ([]*relation.Batch, [][]int32) {
	rng := rand.New(rand.NewSource(1995))
	results, parts := make([]*relation.Batch, 16), make([][]int32, 16)
	for i := range results {
		results[i], parts[i] = relation.NewBatch(512), make([]int32, 512)
		for j := 0; j < 512; j++ {
			k := rng.Int63n(1 << 30)
			results[i].Append(k, k, uint64(j))
			parts[i][j] = int32(rng.Intn(20)) // RD's processes 0–19 are on processors 0–19
		}
	}
	return results, parts
}

// TestScatterAllocFree: in steady state a redistribution scatter on a host
// outbox with a warm pool allocates nothing, to hosts of one process each
// and, row by row from any hosted process, to folded hosts.
func TestScatterAllocFree(t *testing.T) {
	for _, folded := range []bool{false, true} {
		o := scatterOutbox(t, false, folded, 256)
		results, parts := scatterResults()
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			if folded {
				o.EmitTagged(results[i%len(results)], parts[i%len(results)], Insert)
			} else {
				o.EmitFrom(i%20, results[i%len(results)], Insert)
			}
			i++
		}); n != 0 {
			t.Errorf("folded %v: a scatter of %d tuples allocates %v times, want 0", folded, results[0].Len(), n)
		}
	}
}

// BenchmarkOutboxScatter measures an emit per emitted tuple: 512-tuple
// results with random keys from a host outbox of 20 processes,
// redistributed over 40 processes (the scatter), the same from rows of any
// of the 20 to two hosts of 20 (folded), and the copy of one process's
// results on a local edge, all into a pool-backed sink.
func BenchmarkOutboxScatter(b *testing.B) {
	for _, c := range []struct {
		name          string
		local, folded bool
	}{{"redistribution", false, false}, {"folded", false, true}, {"local edge", true, false}} {
		b.Run(c.name, func(b *testing.B) {
			o := scatterOutbox(b, c.local, c.folded, 256)
			results, parts := scatterResults()
			k := 0
			for i := 0; b.Loop(); i++ {
				switch {
				case c.folded:
					o.EmitTagged(results[i%len(results)], parts[i%len(results)], Insert)
					continue
				case !c.local:
					k = i % 20
				}
				o.EmitFrom(k, results[i%len(results)], Insert)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/tuple")
		})
	}
}
