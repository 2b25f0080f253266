package operator

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

func chainDB(t testing.TB, relations, card int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func wire(t testing.TB, kind strategy.Kind, shape jointree.Shape, relations, procs int) (*Wiring, *jointree.Node) {
	t.Helper()
	tree, err := jointree.BuildShape(shape, relations)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: procs, Card: 100})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Wire(plan)
	if err != nil {
		t.Fatal(err)
	}
	return w, tree
}

// topJoin returns the operator that feeds the collect.
func topJoin(w *Wiring) *Node {
	for _, n := range w.Nodes {
		if n.Out != nil && n.Out.To == w.Collect {
			return n
		}
	}
	return nil
}

// TestWiringPunctuationCounts: for every strategy and both tree extremes,
// the punctuation count of each port equals the number of canonical streams
// ending at that port of each consumer process, and the canonical
// enumeration is the dense one Edge.Stream computes.
func TestWiringPunctuationCounts(t *testing.T) {
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
		for _, kind := range strategy.Kinds {
			w, _ := wire(t, kind, shape, 10, 20)
			streams := w.Streams()
			if len(streams) != w.Plan.NumStreams() {
				t.Fatalf("%v/%v: %d streams enumerated, plan declares %d", shape, kind, len(streams), w.Plan.NumStreams())
			}
			type end struct {
				node, idx int
				port      Port
			}
			got := make(map[end]int)
			for i, s := range streams {
				if s.ID != i {
					t.Fatalf("%v/%v: stream %d has id %d", shape, kind, i, s.ID)
				}
				if s.From.Out.To != s.To {
					t.Fatalf("%v/%v: stream %d does not follow its producer's edge", shape, kind, i)
				}
				got[end{s.To.Index, s.ToIdx, s.From.Out.Port}]++
			}
			for _, n := range w.Nodes {
				sum := 0
				for idx := range n.Op.Procs {
					for p := Build; p < numPorts; p++ {
						if c := got[end{n.Index, idx, p}]; c != n.eosWant[p] {
							t.Errorf("%v/%v: %s/%d port %d: %d streams end there, EOSWant = %d", shape, kind, n.Op.ID, idx, p, c, n.eosWant[p])
						}
					}
				}
				for p := Build; p < numPorts; p++ {
					sum += n.eosWant[p]
				}
				if sum != n.InStreams() {
					t.Errorf("%v/%v: %s: InStreams = %d, ports sum to %d", shape, kind, n.Op.ID, n.InStreams(), sum)
				}
			}
		}
	}
}

// feed is one input of a join process in a test schedule.
type feed struct {
	port Port
	lo   int // batch rows [lo, hi) of the port's operand; lo < 0 marks punctuation
	hi   int
}

// TestJoinStepInterleavings drives the join step of every process of a
// two-way join with random interleavings of build batches, probe batches
// and punctuation marks — several marks per port, as a redistribution edge
// delivers them — and checks that the union of the results is the
// sequential reference multiset, for the simple and the pipelining join, in
// memory, out of core and resident. Out of core, under the fuzz harness's
// 512-byte budget, every process spills: nothing is held, no step emits,
// Done holds after the last mark, Drain produces the results, and Release
// leaves the meter at zero and the temp directory empty. In memory, a
// pipelining join holds after a port's last mark only that port's table,
// which the other port still probes, and no table once both have ended. A
// resident process keeps both tables, and its round opens with a deletion
// on a port that has seen no insert: it finds nothing and emits nothing.
func TestJoinStepInterleavings(t *testing.T) {
	db := chainDB(t, 2, 500)
	base := func(leaf int) *relation.Relation { return db.Relation(leaf) }
	for _, kind := range []strategy.Kind{strategy.SP, strategy.FP} {
		w, tree := wire(t, kind, jointree.LeftLinear, 2, 3)
		if err := w.PlaceWith(base, relation.FragmentBatches); err != nil {
			t.Fatal(err)
		}
		want := jointree.Reference(tree, base)
		var jn *Node
		operands := map[Port]*Node{}
		for _, n := range w.Nodes {
			if n.Out != nil && n.Out.To.Op.Kind != xra.OpCollect {
				jn = n.Out.To
				operands[n.Out.Port] = n
			}
		}
		const marks = 3 // punctuation marks per port
		for _, arm := range []struct{ outOfCore, resident bool }{{false, false}, {true, false}, {false, true}} {
			outOfCore, resident := arm.outOfCore, arm.resident
			var sp *Spill
			if outOfCore {
				meter := spill.NewMeter(512)
				sp = &Spill{Meter: meter, Dir: t.TempDir(), Pool: relation.NewBatchPoolAccounted(64, 4, meter.Add)}
			}
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got := relation.New("got", want.TupleBytes)
				for idx := range jn.Op.Procs {
					var j Join
					j.Init(jn, 40)
					j.Expect(Build, marks)
					j.Expect(Probe, marks)
					j.Start(resident, sp)
					spilled := 0
					if sp != nil {
						spilled = sp.Meter.Partitions()
					}
					// Per port: the fragment cut into random batches, with the
					// marks at random positions but the last one at the end.
					var sched [2][]feed
					for p := Build; p <= Probe; p++ {
						n := operands[p].Frags[idx].Len()
						for lo := 0; lo < n; {
							hi := min(n, lo+1+rng.Intn(40))
							sched[p] = append(sched[p], feed{p, lo, hi})
							lo = hi
						}
						for m := 0; m < marks-1; m++ {
							sched[p] = slices.Insert(sched[p], rng.Intn(len(sched[p])+1), feed{port: p, lo: -1})
						}
						sched[p] = append(sched[p], feed{port: p, lo: -1})
					}
					var scratch relation.Batch
					if resident {
						p := Port(rng.Intn(2))
						del := relation.NewBatch(8)
						del.AppendRange(&operands[p].Frags[idx], 0, 8)
						res, err := j.ApplyInto(&scratch, Msg{Batch: del, Port: p, Sign: Delete})
						if err != nil || res.Len() != 0 || j.Unmatched() != 8 {
							t.Fatalf("%v seed %d: a deletion on a port with no insert emitted %d rows (err %v)", kind, seed, res.Len(), err)
						}
					}
					var applied [2]int // rows applied per port
					apply := func(m Msg) {
						applied[m.Port] += m.Batch.Len()
						res, err := j.ApplyInto(&scratch, m)
						switch {
						case err != nil:
							t.Fatal(err)
						case sp != nil && res != nil:
							t.Fatalf("%v seed %d: an out-of-core step returned a result", kind, seed)
						case res != nil:
							res.AppendTo(got)
						}
					}
					var heldOrder, releasedOrder []*relation.Batch
					for len(sched[Build])+len(sched[Probe]) > 0 {
						p := Port(rng.Intn(2))
						if len(sched[p]) == 0 {
							p = 1 - p
						}
						f := sched[p][0]
						sched[p] = sched[p][1:]
						if f.lo < 0 {
							for _, h := range j.EOS(p) {
								releasedOrder = append(releasedOrder, h.Batch)
								apply(h)
							}
							tables := applied[p]
							switch {
							case resident:
								tables = applied[Build] + applied[Probe]
							case len(sched[1-p]) == 0:
								tables = 0 // both operands have ended
							}
							if len(sched[p]) == 0 && (kind == strategy.FP && sp == nil || resident) && j.Resident() != tables {
								t.Fatalf("%v seed %d resident %v: %d tuples in tables after port %d ended, want %d", kind, seed, resident, j.Resident(), p, tables)
							}
							continue
						}
						b := operands[p].Frags[idx].View(f.lo, f.hi)
						m := Msg{Batch: &b, Port: p, Sign: Insert}
						if j.Hold(m) {
							heldOrder = append(heldOrder, m.Batch)
							continue
						}
						apply(m)
					}
					if !j.Done() {
						t.Fatalf("%v seed %d: join not done after all punctuation", kind, seed)
					}
					if !slices.Equal(heldOrder, releasedOrder) {
						t.Fatalf("%v seed %d: %d held probe batches released out of arrival order", kind, seed, len(heldOrder))
					}
					if (kind == strategy.FP || sp != nil || resident) && len(heldOrder) > 0 {
						t.Fatalf("%v seed %d: a pipelining, out-of-core or resident join held %d batches", kind, seed, len(heldOrder))
					}
					if j.TakesSlot() != (sp == nil) {
						t.Fatalf("%v seed %d: TakesSlot = %v out of core = %v", kind, seed, j.TakesSlot(), sp != nil)
					}
					err := j.Drain(func(res *relation.Batch) error {
						res.AppendTo(got)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					j.Release()
					if sp != nil {
						if sp.Meter.Partitions() == spilled {
							t.Fatalf("%v seed %d: process %d spilled nothing", kind, seed, idx)
						}
						if live := sp.Meter.Live(); live != 0 {
							t.Fatalf("%v seed %d: meter reads %d live bytes after Release", kind, seed, live)
						}
						if files, err := os.ReadDir(sp.Dir); err != nil || len(files) != 0 {
							t.Fatalf("%v seed %d: %d files left in the temp directory (%v)", kind, seed, len(files), err)
						}
					}
				}
				if diff := relation.DiffMultiset(got, want); diff != "" {
					t.Fatalf("%v out of core %v resident %v seed %d: %s", kind, outOfCore, resident, seed, diff)
				}
			}
		}
	}
}

// TestJoinStepSpillDirMissing: an out-of-core join whose temp directory does
// not exist fails the first step that spills with an error naming the path,
// and Release still gives the meter back everything.
func TestJoinStepSpillDirMissing(t *testing.T) {
	db := chainDB(t, 2, 500)
	w, _ := wire(t, strategy.SP, jointree.LeftLinear, 2, 1)
	if err := w.PlaceWith(func(leaf int) *relation.Relation { return db.Relation(leaf) }, relation.FragmentBatches); err != nil {
		t.Fatal(err)
	}
	scan := w.Nodes[0]
	meter := spill.NewMeter(512)
	sp := &Spill{Meter: meter, Dir: filepath.Join(t.TempDir(), "missing"), Pool: relation.NewBatchPoolAccounted(64, 4, meter.Add)}
	var j Join
	j.Init(scan.Out.To, 64)
	j.Start(false, sp)
	frag := scan.Frags[0]
	var err error
	for lo := 0; lo < frag.Len() && err == nil; lo += 16 {
		b := frag.View(lo, min(lo+16, frag.Len()))
		_, err = j.ApplyInto(nil, Msg{Batch: &b, Port: scan.Out.Port, Sign: Insert})
	}
	if err == nil || !strings.Contains(err.Error(), sp.Dir) {
		t.Fatalf("spilling into a missing directory returned %v, want an error naming %s", err, sp.Dir)
	}
	j.Release()
	if live := meter.Live(); live != 0 {
		t.Fatalf("meter reads %d live bytes after Release", live)
	}
}

// TestSimpleJoinProcessAllocs pins what one simple-join process's life
// allocates once the table pool is warm: Start, the probe batches it is
// estimated to receive held during the build phase, the build operand's
// batches and its end, the held batches applied, Release. The hash join
// lives inside the Join and its table comes recycled, so the one allocation
// is the held-probe queue, made at its estimated length on the first Hold.
func TestSimpleJoinProcessAllocs(t *testing.T) {
	const bt = 64 // the driver's transport size
	db := chainDB(t, 2, 2000)
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 2, 4)
	if err := w.PlaceWith(func(leaf int) *relation.Relation { return db.Relation(leaf) }, relation.FragmentBatches); err != nil {
		t.Fatal(err)
	}
	jn := w.Collect.In[In]
	if jn.Op.Kind != xra.OpSimpleJoin {
		t.Fatalf("top operator is %v, want a simple join", jn.Op.Kind)
	}
	build, probe := jn.In[Build].Frags[0].Lend(bt), jn.In[Probe].Frags[0].Lend(bt)
	want := relation.PerFragmentCap(jn.In[Probe].EstCard, len(jn.Op.Procs))/bt + jn.eosWant[Probe]
	if want < len(probe) {
		t.Fatalf("estimated %d probe batches, the fragment has %d", want, len(probe))
	}
	res := relation.NewBatch(2 * bt)
	var j Join
	matched := 0
	life := func() {
		j = Join{}
		j.Init(jn, bt)
		j.Start(false, nil)
		for k := range want {
			if !j.Hold(Msg{Batch: &probe[k%len(probe)], Port: Probe}) {
				t.Fatal("a simple join in its build phase did not hold probe input")
			}
		}
		for k := range build {
			j.ApplyInto(res, Msg{Batch: &build[k], Port: Build})
		}
		held := j.EOS(Build)
		if len(held) != want || cap(held) != want {
			t.Fatalf("EOS handed back %d held batches in a queue of %d, want %d in %d", len(held), cap(held), want, want)
		}
		matched = 0
		for _, m := range held {
			r, _ := j.ApplyInto(res, m)
			matched += r.Len()
		}
		j.Release()
	}
	life()
	if matched == 0 {
		t.Fatal("the held probe batches matched nothing")
	}
	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	n := testing.AllocsPerRun(100, life)
	t.Logf("allocations per life: %.0f", n)
	if n > 1 {
		t.Errorf("a simple-join process's life allocates %v times, want at most 1 (its held-probe queue)", n)
	}
}

// recorder is a Deliverer that records what was delivered where, and the
// messages themselves (their batches are not recycled meanwhile).
type recorder struct {
	log  []string
	msgs []Msg
}

func (r *recorder) Deliver(d int, m Msg) bool {
	r.msgs = append(r.msgs, m)
	switch {
	case m.Batch == nil:
		r.log = append(r.log, fmt.Sprintf("d%d:mark", d))
	default:
		r.log = append(r.log, fmt.Sprintf("d%d:%+d x%d", d, m.Sign, m.Batch.Len()))
	}
	return true
}

// TestOutboxOrderingRule is the table test of the one ordering rule: a full
// buffer of the delete lane is delivered only after the pending insert
// buffer for the same destination; inserts may overtake deletes; other
// destinations are unaffected.
func TestOutboxOrderingRule(t *testing.T) {
	// Keys routed to destination 0 and 1 of a two-process consumer.
	var keys [2][]int64
	bk := relation.NewBucketer(2)
	for k := int64(0); len(keys[0]) < 8 || len(keys[1]) < 8; k++ {
		d := bk.Bucket(k)
		keys[d] = append(keys[d], k)
	}
	type step struct {
		sign int8
		dest int
		n    int // tuples emitted to dest with sign
	}
	const size = 4
	cases := []struct {
		name  string
		steps []step
		flush bool
		want  []string
	}{
		{"delete fills behind a pending insert: insert goes first",
			[]step{{Insert, 0, 2}, {Delete, 0, 4}}, false,
			[]string{"d0:+1 x2", "d0:-1 x4"}},
		{"insert fills ahead of a pending delete: inserts may overtake",
			[]step{{Delete, 0, 2}, {Insert, 0, 4}}, false,
			[]string{"d0:+1 x4"}},
		{"the rule is per destination",
			[]step{{Insert, 1, 3}, {Delete, 0, 4}}, false,
			[]string{"d0:-1 x4"}},
		{"nothing pending: the delete goes alone",
			[]step{{Insert, 0, 4}, {Delete, 0, 4}}, false,
			[]string{"d0:+1 x4", "d0:-1 x4"}},
		{"flush keeps the rule for every destination, then marks",
			[]step{{Delete, 0, 1}, {Delete, 1, 2}, {Insert, 1, 3}, {Insert, 0, 2}}, true,
			[]string{"d0:+1 x2", "d1:+1 x3", "d0:-1 x1", "d1:-1 x2", "d0:mark", "d1:mark"}},
	}
	w, _ := wire(t, strategy.FP, jointree.LeftLinear, 3, 4)
	var producer *Node // a join feeding a two-process join
	for _, n := range w.Nodes {
		if n.Op.Kind == xra.OpPipeJoin && n.Out.To.Op.Kind == xra.OpPipeJoin && len(n.Out.To.Op.Procs) == 2 {
			producer = n
		}
	}
	if producer == nil {
		t.Fatal("plan has no join feeding a two-process join")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{}
			pool := relation.NewBatchPool(size, 8)
			o := NewOutbox(producer, 0, pool, size, rec)
			next := [2]int{}
			for _, s := range c.steps {
				var b relation.Batch
				for i := 0; i < s.n; i++ {
					k := keys[s.dest][next[s.dest]]
					next[s.dest]++
					if producer.Out.Route == relation.Unique1 {
						b.Append(k, 0, 0)
					} else {
						b.Append(0, k, 0)
					}
				}
				if !o.Emit(&b, s.sign) {
					t.Fatal("Emit failed")
				}
			}
			if c.flush && !(o.Flush() && o.Punctuate()) {
				t.Fatal("Flush/Punctuate failed")
			}
			if !slices.Equal(rec.log, c.want) {
				t.Errorf("delivered %v, want %v", rec.log, c.want)
			}
		})
	}
}

// TestOutboxSingleDestinationBulk: on a single-destination edge the bulk
// path cuts the result into full transport batches and keeps the remainder
// pending until Flush.
func TestOutboxSingleDestinationBulk(t *testing.T) {
	w, _ := wire(t, strategy.FP, jointree.LeftLinear, 2, 2)
	top := topJoin(w)
	rec := &recorder{}
	o := NewOutbox(top, 0, relation.NewBatchPool(4, 8), 4, rec)
	var b relation.Batch
	for i := int64(0); i < 10; i++ {
		b.Append(i, i, 0)
	}
	o.Emit(&b, Insert)
	o.Flush()
	if want := []string{"d0:+1 x4", "d0:+1 x4", "d0:+1 x2"}; !slices.Equal(rec.log, want) {
		t.Errorf("delivered %v, want %v", rec.log, want)
	}
	if o.Batches != 0 {
		t.Errorf("the gather at the collect operator was counted: %d batches", o.Batches)
	}
}

// TestHostOutbox drives the outbox several processes of one operator share:
// on a local edge a process lends its fragment to the consumer process of its
// own index; on a redistribution edge the processes fill one buffer per consumer
// process between them, the ordering rule holds per destination whoever
// emitted, and the tuple counters follow the processor of the emitting
// process. Either way Punctuate addresses every destination once, and every
// message names its consumer process.
func TestHostOutbox(t *testing.T) {
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 3, 4)
	var scan, join *Node
	for _, n := range w.Nodes {
		switch {
		case n.Out == nil || len(n.Op.Procs) != 4 || len(n.Out.To.Op.Procs) != 4:
		case n.Out.Local && scan == nil:
			scan = n
		case n.Op.Kind == xra.OpSimpleJoin && !n.Out.Local && n.Out.To.Op.Kind != xra.OpCollect:
			join = n
		}
	}
	if scan == nil || join == nil {
		t.Fatal("plan has no four-process scan on a local edge or no join redistributing to a four-process join")
	}
	batch := func(keys ...int64) *relation.Batch {
		var b relation.Batch
		for _, k := range keys {
			b.Append(k, k, uint64(k))
		}
		return &b
	}
	tos := func(msgs []Msg) (out []int32) {
		for _, m := range msgs {
			if m.Remote {
				t.Errorf("a shared outbox marked a message for process %d remote", m.To)
			}
			out = append(out, m.To)
		}
		return out
	}
	const size = 4

	// A scan lends its placed fragment view by view (Lend). For each fragment
	// that is the message sequence — addressee, port, remote mark, length —
	// and the counters of the copy path, the outbox of the process alone
	// cutting the fragment into pooled batches; but every batch delivered is
	// a view of the fragment itself.
	t.Run("local edge", func(t *testing.T) {
		type delivery struct {
			to     int32
			port   Port
			remote bool
			n      int
		}
		deliveries := func(msgs []Msg) (out []delivery) {
			for _, m := range msgs {
				out = append(out, delivery{m.To, m.Port, m.Remote, m.Batch.Len()})
			}
			return out
		}
		hosted := []int{1, 3}
		frags := []*relation.Batch{batch(1, 2, 3, 4, 5, 6, 7, 8, 9), batch(10, 11, 12)}
		rec := &recorder{}
		o := NewHostOutbox(scan, hosted, relation.NewBatchPool(size, 8), size, rec)
		var copied []Msg
		var want [3]int64
		for k, frag := range frags {
			cp := &recorder{}
			c := NewOutbox(scan, hosted[k], relation.NewBatchPool(size, 8), size, cp)
			if !(c.Emit(frag, Insert) && c.Flush()) {
				t.Fatal("copy delivery failed")
			}
			copied = append(copied, cp.msgs...)
			want[0], want[1], want[2] = want[0]+c.MovedLocal, want[1]+c.MovedRemote, want[2]+c.Batches
			lent := len(rec.msgs)
			views := frag.Lend(size)
			for v := range views {
				if !o.Lend(k, &views[v]) {
					t.Fatal("lent delivery failed")
				}
			}
			for v, m := range rec.msgs[lent:] {
				if m.Batch != &views[v] || &m.Batch.U1[0] != &frag.U1[v*size] {
					t.Errorf("fragment %d: message %d carries no view of the fragment", k, v)
				}
			}
		}
		if got, want := deliveries(rec.msgs), deliveries(copied); !slices.Equal(got, want) {
			t.Errorf("lent deliveries %v, the copy path's %v", got, want)
		}
		if got := [3]int64{o.MovedLocal, o.MovedRemote, o.Batches}; got != want || want != [3]int64{12, 0, 4} {
			t.Errorf("local, remote, batches %v; the copy path's %v, want [12 0 4]", got, want)
		}
		rec.msgs = rec.msgs[:0]
		if !(o.Flush() && o.Punctuate()) {
			t.Fatal("Flush/Punctuate failed")
		}
		if got, want := tos(rec.msgs), []int32{1, 3}; !slices.Equal(got, want) {
			t.Errorf("marks addressed to processes %v, want %v", got, want)
		}
	})

	t.Run("redistribution", func(t *testing.T) {
		// Keys routed to each process of the four-process consumer.
		var keys [4][]int64
		bk := relation.NewBucketer(4)
		for k := int64(0); len(keys[0]) < 8 || len(keys[2]) < 8; k++ {
			d := bk.Bucket(k)
			keys[d] = append(keys[d], k)
		}
		rec := &recorder{}
		// Processes 0 and 2, on processors 0 and 2 like consumer processes
		// 0 and 2.
		o := NewHostOutbox(join, []int{0, 2}, relation.NewBatchPool(size, 8), size, rec)
		if join.Op.Procs[0] != join.Out.To.Op.Procs[0] || join.Op.Procs[2] != join.Out.To.Op.Procs[2] {
			t.Fatal("producer and consumer are not on the same processors")
		}
		ok := o.EmitFrom(0, batch(keys[0][0], keys[0][1], keys[2][0]), Insert) && // 2 local, 1 remote
			o.EmitFrom(1, batch(keys[0][2], keys[2][1]), Insert) && // 1 remote, 1 local
			// The deletes of process 2 fill a buffer for destination 0: the
			// inserts pending there, of both processes, go first.
			o.EmitFrom(1, batch(keys[0][3], keys[0][4], keys[0][5], keys[0][6]), Delete) && // 4 remote
			o.Flush() && o.Punctuate()
		if !ok {
			t.Fatal("delivery failed")
		}
		want := []string{"d0:+1 x3", "d0:-1 x4", "d2:+1 x2", "d0:mark", "d1:mark", "d2:mark", "d3:mark"}
		if !slices.Equal(rec.log, want) {
			t.Errorf("delivered %v, want %v", rec.log, want)
		}
		if got, want := tos(rec.msgs), []int32{0, 0, 2, 0, 1, 2, 3}; !slices.Equal(got, want) {
			t.Errorf("addressed to processes %v, want %v", got, want)
		}
		if o.MovedLocal != 3 || o.MovedRemote != 6 || o.Batches != 3 {
			t.Errorf("local %d, remote %d, batches %d; want 3, 6, 3", o.MovedLocal, o.MovedRemote, o.Batches)
		}
	})

	// The outbox of a single process is what the simulator and the views
	// build per process and run: it marks what crosses processors, counts the
	// same tuples, and costs the two allocations it always did.
	t.Run("single process", func(t *testing.T) {
		rec := &recorder{}
		pool := relation.NewBatchPool(size, 8)
		o := NewOutbox(join, 2, pool, size, rec)
		var keys []int64
		for d := 0; d < 4; d++ {
			for k := int64(0); ; k++ {
				if relation.NewBucketer(4).Bucket(k) == d {
					keys = append(keys, k)
					break
				}
			}
		}
		if !(o.Emit(batch(keys...), Insert) && o.Flush() && o.Punctuate()) {
			t.Fatal("delivery failed")
		}
		for i, m := range rec.msgs {
			if d := i % 4; m.To != int32(d) || m.Remote != (d != 2) {
				t.Errorf("message %d: To %d, Remote %v; want To %d, Remote %v", i, m.To, m.Remote, d, d != 2)
			}
		}
		if len(rec.msgs) != 8 || o.MovedLocal != 1 || o.MovedRemote != 3 || o.Batches != 4 {
			t.Errorf("%d messages, local %d, remote %d, batches %d; want 8, 1, 3, 4", len(rec.msgs), o.MovedLocal, o.MovedRemote, o.Batches)
		}
		if n := testing.AllocsPerRun(100, func() { NewOutbox(join, 2, pool, size, rec) }); n != 2 {
			t.Errorf("NewOutbox allocates %v times, want 2 (the outbox and its pending buffers' slice)", n)
		}
	})
}

// consumer is a Deliverer that records what each message carries — the
// tuples copied out — and hands its batch back at once, as a consuming
// process would.
type consumer struct {
	got []delivery
	put func(*relation.Batch)
}

type delivery struct {
	To     int32
	Port   Port
	Remote bool
	Sign   int8
	Tuples []relation.Tuple
}

func (c *consumer) Deliver(_ int, m Msg) bool {
	d := delivery{To: m.To, Port: m.Port, Remote: m.Remote, Sign: m.Sign}
	if m.Batch != nil {
		d.Tuples = m.Batch.Tuples()
		c.put(m.Batch)
	}
	c.got = append(c.got, d)
	return true
}

// TestOutboxGrowsBuffers is the differential test of a buffer that starts
// below the transport size: against an outbox whose buffers start at the
// transport size it delivers the same messages — addressee, port, remote
// mark, sign and tuples, in order — and ends with the same counters, on a
// local edge, a single-destination edge and a redistribution, at a
// transport size that is no power of two and at one below BufferSize's
// floor. Every batch it drew, grown away or delivered, comes back to the
// pool of its own capacity: each pool's meter ends at zero.
func TestOutboxGrowsBuffers(t *testing.T) {
	rd, _ := wire(t, strategy.RD, jointree.LeftLinear, 3, 4)
	one, _ := wire(t, strategy.RD, jointree.LeftLinear, 3, 1)
	find := func(w *Wiring, ok func(*Node) bool) *Node {
		for _, n := range w.Nodes {
			if n.Out != nil && n.Out.To.Op.Kind != xra.OpCollect && ok(n) {
				return n
			}
		}
		t.Fatal("plan has no such producer")
		return nil
	}
	edges := []struct {
		name string
		n    *Node
		idx  int
	}{
		{"local edge", find(rd, func(n *Node) bool { return n.Out.Local && len(n.Op.Procs) == 4 }), 2},
		{"single destination", find(one, func(n *Node) bool { return !n.Out.Local && n.Out.Dests() == 1 }), 0},
		{"redistribution", find(rd, func(n *Node) bool { return !n.Out.Local && n.Out.Dests() == 4 }), 1},
	}
	for _, e := range edges {
		for _, sz := range []struct{ size, start int }{{100, 16}, {8, 1}} {
			t.Run(fmt.Sprintf("%s/size %d", e.name, sz.size), func(t *testing.T) {
				full := relation.NewBatchPool(sz.size, 64)
				ref := &consumer{put: full.Put}
				live := map[int]*int64{}
				pools := map[int]*relation.BatchPool{}
				pool := func(c int) *relation.BatchPool {
					if pools[c] == nil {
						n := new(int64)
						live[c], pools[c] = n, relation.NewBatchPoolAccounted(c, 64, func(d int64) { *n += d })
					}
					return pools[c]
				}
				got := &consumer{put: func(b *relation.Batch) { pool(b.Cap()).Put(b) }}
				a := NewOutbox(e.n, e.idx, full, sz.size, ref)
				b := NewOutbox(e.n, e.idx, pool(sz.start), sz.size, got)
				b.pools = pool

				rng := rand.New(rand.NewSource(int64(sz.size)))
				for i := 0; i < 60; i++ {
					var res relation.Batch
					for j := rng.Intn(3 * sz.size); j > 0; j-- {
						k := rng.Int63n(1 << 20)
						res.Append(k, k^0x5a5a, uint64(len(res.U1)+1000*i))
					}
					sign := Insert
					if rng.Intn(3) == 0 {
						sign = Delete
					}
					if !(a.Emit(&res, sign) && b.Emit(&res, sign)) {
						t.Fatal("Emit failed")
					}
				}
				if !(a.Flush() && a.Punctuate() && b.Flush() && b.Punctuate()) {
					t.Fatal("Flush/Punctuate failed")
				}
				if len(got.got) != len(ref.got) {
					t.Fatalf("%d messages from grown buffers, %d at full capacity", len(got.got), len(ref.got))
				}
				for i := range ref.got {
					if g, r := got.got[i], ref.got[i]; g.To != r.To || g.Port != r.Port || g.Remote != r.Remote || g.Sign != r.Sign || !slices.Equal(g.Tuples, r.Tuples) {
						t.Fatalf("message %d: %+v from grown buffers, %+v at full capacity", i, g, r)
					}
				}
				if g, r := [3]int64{b.MovedLocal, b.MovedRemote, b.Batches}, [3]int64{a.MovedLocal, a.MovedRemote, a.Batches}; g != r || r[2] == 0 {
					t.Errorf("local, remote, batches %v from grown buffers, %v at full capacity", g, r)
				}
				if len(pools) < 3 {
					t.Errorf("buffers drew from capacities %v only: they never grew", slices.Sorted(maps.Keys(pools)))
				}
				for c, n := range live {
					if *n != 0 {
						t.Errorf("the pool of capacity %d has %d bytes checked out at the end", c, *n)
					}
				}
			})
		}
	}
}

// TestBufferSize: a buffer starts at the power-of-two ceiling of the tuples
// it is estimated to carry, at least minBufferTuples and at most the
// transport size, which is where a buffer expected to fill one starts.
func TestBufferSize(t *testing.T) {
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 3, 4)
	var local, redist Node
	for _, n := range w.Nodes {
		switch {
		case n.Out == nil || len(n.Op.Procs) != 4:
		case n.Out.Local:
			local = *n
		case n.Out.Dests() == 4:
			redist = *n
		}
	}
	if local.Op == nil || redist.Op == nil {
		t.Fatal("plan has no four-process producer on a local edge or redistributing to four processes")
	}
	for _, c := range []struct {
		n              *Node
		card, outboxes int
		size, want     int
	}{
		{&local, 4 * 10, 4, 64, 16},   // 10 per buffer: the floor
		{&local, 4 * 17, 1, 64, 32},   // one buffer per process, however many outboxes
		{&local, 4 * 64, 4, 64, 64},   // expected to fill one
		{&local, 4 * 70, 4, 100, 100}, // never above the transport size
		{&local, 4 * 3, 4, 8, 8},      // a transport size below the floor
		{&redist, 16 * 33, 4, 256, 64},
		{&redist, 16 * 33, 2, 256, 128}, // fewer outboxes, fuller buffers
		{&redist, 0, 4, 256, 16},
	} {
		c.n.EstCard = c.card
		if got := c.n.BufferSize(c.outboxes, c.size); got != c.want {
			t.Errorf("EstCard %d over %d outboxes, transport size %d: BufferSize %d, want %d", c.card, c.outboxes, c.size, got, c.want)
		}
	}
}

// discard is a Deliverer that drops what it is given.
type discard struct{}

func (discard) Deliver(int, Msg) bool { return true }

// TestLendAllocFree: delivering a lent view allocates nothing — no pooled
// batch, no copy.
func TestLendAllocFree(t *testing.T) {
	w, _ := wire(t, strategy.RD, jointree.LeftLinear, 3, 4)
	var scan *Node
	for _, n := range w.Nodes {
		if n.Out != nil && n.Out.Local {
			scan = n
			break
		}
	}
	var frag relation.Batch
	for i := int64(0); i < 1000; i++ {
		frag.Append(i, i, uint64(i))
	}
	o := NewHostOutbox(scan, []int{0, 1}, relation.NewBatchPool(256, 8), 256, discard{})
	views := frag.Lend(256)
	if n := testing.AllocsPerRun(100, func() {
		for v := range views {
			o.Lend(1, &views[v])
		}
	}); n != 0 {
		t.Errorf("lending a fragment of %d views allocates %v times, want 0", len(views), n)
	}
}

// TestSendCancelReturnsBatch is the one cancel rule for a batch in flight:
// a delivery that loses the race with cancellation returns its batch's
// bytes to the meter, while a batch already parked in an inbox stays
// accounted (it is Settle's to reclaim).
func TestSendCancelReturnsBatch(t *testing.T) {
	var live int64
	pool := relation.NewBatchPoolAccounted(4, 8, func(d int64) { live += d })
	inbox := make(chan Msg, 1)
	done := make(chan struct{})
	parked := pool.Get()
	if !Send(inbox, Msg{Batch: parked}, done, pool) {
		t.Fatal("Send into a free inbox failed")
	}
	one := live
	if one <= 0 {
		t.Fatalf("accounted pool reports %d live bytes with one batch out", live)
	}
	close(done) // cancelled; the inbox is full, so the next delivery must lose
	if Send(inbox, Msg{Batch: pool.Get()}, done, pool) {
		t.Fatal("Send into a full inbox of a cancelled run succeeded")
	}
	if live != one {
		t.Errorf("%d bytes live after the lost delivery, want %d (the parked batch only)", live, one)
	}
	// The same through an outbox: the full buffer goes back to the pool.
	w, _ := wire(t, strategy.FP, jointree.LeftLinear, 2, 2)
	top := topJoin(w)
	o := NewOutbox(top, 0, pool, 4, &Chans{Dst: []chan<- Msg{inbox}, Done: done, Pool: pool})
	var b relation.Batch
	for i := int64(0); i < 4; i++ {
		b.Append(i, i, 0)
	}
	if o.Emit(&b, Insert) {
		t.Fatal("Emit into a full inbox of a cancelled run succeeded")
	}
	if live != one {
		t.Errorf("%d bytes live after the lost outbox delivery, want %d", live, one)
	}
}
