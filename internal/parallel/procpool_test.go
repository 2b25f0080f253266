package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// TestSlotExclusive hammers one modeled processor from many goroutines
// through every plan processor id that maps to it — positive, wrapped and
// the scheduler host's negative pseudo id — and asserts no two of them are
// ever inside the slot together, while a different slot stays free.
func TestSlotExclusive(t *testing.T) {
	const size, workers, rounds = 4, 16, 2000
	p := NewProcPool(size)
	defer p.Close()
	if p.Size() != size {
		t.Fatalf("Size = %d, want %d", p.Size(), size)
	}
	ids := []int{3, 3 + size, 3 + 5*size, 3 - size} // all slot 3
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := &p.slots[p.index(ids[g%len(ids)])]
			for i := 0; i < rounds; i++ {
				slot.Lock()
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				inside.Add(-1)
				slot.Unlock()
			}
		}(g)
	}
	// While slot 3 is contended, slot 2 is not: a held slot blocks only its
	// own processor's processes.
	other := &p.slots[p.index(2)]
	for i := 0; i < rounds; i++ {
		if !other.TryLock() {
			t.Fatal("slot 2 is held although only slot 3 is in use")
		}
		other.Unlock()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping entries into one slot", n)
	}
}

// TestResidentBatchPools: one pool per capacity for every run on the
// ProcPool, a bounded number of them, and none after Close.
func TestResidentBatchPools(t *testing.T) {
	p := NewProcPool(2)
	a, b := p.batchPool(64), p.batchPool(256)
	if a == b || a != p.batchPool(64) || b != p.batchPool(256) {
		t.Fatal("resident pools are not one per capacity")
	}
	if a.BatchSize() != 64 || b.BatchSize() != 256 {
		t.Fatalf("pool capacities %d, %d", a.BatchSize(), b.BatchSize())
	}
	for size := 1; len(p.pools) < maxResidentPools; size++ {
		p.batchPool(1000 + size)
	}
	extra := p.batchPool(5000)
	if extra == nil || extra.BatchSize() != 5000 {
		t.Fatal("a capacity past the bound must still get a working pool")
	}
	if extra == p.batchPool(5000) || len(p.pools) != maxResidentPools {
		t.Fatalf("a capacity past the bound became resident (%d pools)", len(p.pools))
	}
	p.Close()
	if len(p.pools) != 0 {
		t.Fatalf("%d pools survive Close", len(p.pools))
	}
}

// keepSink gathers a run's result and keeps its batches until the first
// push of its next run, which releases them: a finished run's batches are
// still held while the next run of the plan — on a shell some finished run
// left — is going.
type keepSink struct {
	got            *relation.Relation
	held, previous []func()
}

func (s *keepSink) Push(_ context.Context, b *relation.Batch, release func()) error {
	for _, f := range s.previous {
		f()
	}
	s.previous = nil
	for i := 0; i < b.Len(); i++ {
		s.got.Append(b.Tuple(i))
	}
	s.held = append(s.held, release)
	return nil
}

// TestShellReuse: four goroutines run one plan at once, again and again, on
// one ProcPool, each run on a shell an earlier one left whenever there is
// one, and each releasing a run's result batches only while its next run is
// pushing. Every run matches the reference and counts what the first did,
// and no more shells stay idle than ran at once. Then more distinct plans than the bound run one after
// another, and the pool never keeps more shells than the bound.
func TestShellReuse(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	want := jointree.Reference(tree, db.Relation)
	p := NewProcPool(4)
	defer p.Close()
	cfg := Config{Pool: p, Placement: db.Placement()}
	planOf := func(kind strategy.Kind) *xra.Plan {
		t.Helper()
		plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	const runners, runs = 4, 10
	plan := planOf(strategy.RD)
	var wg sync.WaitGroup
	for range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &keepSink{}
			defer func() {
				for _, f := range s.held {
					f()
				}
			}()
			var first operator.Counters
			for i := range runs {
				s.got, s.previous, s.held = relation.New("got", want.TupleBytes), s.held, nil
				res, err := RunStream(context.Background(), plan, db.Relation, cfg, s)
				if err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				if diff := relation.DiffMultiset(s.got, want); diff != "" {
					t.Errorf("run %d: result differs from the reference: %s", i, diff)
					return
				}
				if i == 0 {
					first = res.Stats.Counters
				} else if res.Stats.Counters != first {
					t.Errorf("run %d counted %+v, the first %+v", i, res.Stats.Counters, first)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(p.shells[shellKey{plan, cfg.withDefaults(plan)}]); n < 1 || n > runners {
		t.Errorf("%d idle shells of the plan after %d runs, %d at a time", n, runners*runs, runners)
	}

	for i := range maxIdleShells + 4 {
		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		if _, err := RunStream(context.Background(), planOf(strategy.Kinds[i%4]), db.Relation, cfg, got); err != nil {
			t.Fatal(err)
		}
		if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
			t.Fatalf("plan %d: result differs from the reference: %s", i, diff)
		}
		if p.idle < 1 || p.idle > maxIdleShells {
			t.Fatalf("%d idle shells after %d distinct plans, bound %d", p.idle, i+1, maxIdleShells)
		}
	}
}

// parkedStacks counts the goroutines in host.park, from a dump of every
// goroutine's stack.
func parkedStacks() int {
	n := 0
	for _, g := range atrest.Stacks() {
		if strings.Contains(g, atrest.HostLoop) {
			n++
		}
	}
	return n
}

// TestParkedHosts: the hosts of a kept shell stay parked between its runs,
// and every path that drops a shell ends them — the 17th distinct plan
// (evict-all), a run on other relations (reuse), a cancelled run, a run
// that fails, a finished run that leaves input behind, and Close. After
// each step Parked reports exactly the goroutines parked in host.park, the
// process runs no more than the baseline plus them, and the pool's idle
// shells hold exactly what their last runs counted. Close returns only once
// the hosts it stops have left their loops, so right after it, with no
// polling, the process runs the baseline and at most hosts past their last
// receive, which Go reaps a moment later (atrest.Closing).
func TestParkedHosts(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	other, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	planOf := func(kind strategy.Kind) *xra.Plan {
		t.Helper()
		plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 12, Card: float64(db.Cardinality())})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p := NewProcPool(2)
	cfg := Config{Pool: p}
	baseline := runtime.NumGoroutine()
	check := func(when string, parked int) {
		t.Helper()
		if n := p.Parked(); n != parked {
			t.Fatalf("%s: Parked() = %d, want %d", when, n, parked)
		}
		if err := atrest.Goroutines(baseline+parked, 5*time.Second); err != nil {
			t.Fatalf("%s: %v (baseline %d, %d parked)", when, err, baseline, parked)
		}
		for deadline := time.Now().Add(5 * time.Second); parkedStacks() != parked; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines in host.park, Parked() = %d", when, parkedStacks(), parked)
			}
		}
	}
	// run completes plan on db's relations, or on other's, and reports the
	// goroutines it counted.
	run := func(plan *xra.Plan, db *wisconsin.Database) int {
		t.Helper()
		got := &operator.Gather{Rel: relation.New("got", relation.TupleWireBytes)}
		res, err := RunStream(context.Background(), plan, db.Relation, cfg, got)
		if err != nil {
			t.Fatal(err)
		}
		if diff := relation.DiffMultiset(got.Rel, jointree.Reference(tree, db.Relation)); diff != "" {
			t.Fatalf("result differs from the reference: %s", diff)
		}
		return res.Stats.Goroutines
	}

	rd := planOf(strategy.RD)
	hosts := run(rd, db)
	check("a completed run", hosts)
	if run(rd, db) != hosts {
		t.Fatal("the rerun counted other goroutines")
	}
	check("a rerun on the kept shell", hosts)

	// Distinct plans up to the bound are all kept; the next evicts them all.
	parked := hosts
	for i := 1; i < maxIdleShells; i++ {
		parked += run(planOf(strategy.Kinds[i%4]), db)
	}
	check(fmt.Sprintf("%d distinct plans", maxIdleShells), parked)
	fp := planOf(strategy.FP)
	hosts = run(fp, db)
	check("the 17th distinct plan", hosts)

	// A run of the plan on other relations drops the shell placed on these.
	hosts = run(fp, other)
	check("a run on other relations", hosts)

	ctx, cancel := context.WithCancel(context.Background())
	if _, err := RunStream(ctx, fp, other.Relation, cfg, cancelSink{cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	check("a cancelled run", 0)

	hosts = run(fp, db)
	if _, err := RunStream(context.Background(), fp, db.Relation, cfg, nil); err == nil {
		t.Fatal("a run without a sink did not fail")
	}
	check("a run that fails", 0)

	// Concurrent runners each take a shell of the plan or build one; every
	// one they leave holds its hosts parked.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got := &operator.Gather{Rel: relation.New("got", relation.TupleWireBytes)}
				if _, err := RunStream(context.Background(), fp, db.Relation, cfg, got); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	shells := len(p.shells[shellKey{fp, cfg.withDefaults(fp)}])
	if shells < 1 || shells > 4 {
		t.Fatalf("%d idle shells after 4 concurrent runners", shells)
	}
	check("concurrent runners", shells*hosts)

	// A finished run that left a message in an inbox does not keep its shell.
	r := p.reuse(fp, cfg.withDefaults(fp), db.Relation)
	r.ops[0].hosts[0].inbox <- operator.Msg{}
	r.finish()
	check("a finished run with input left", (shells-1)*hosts)

	// Close with an RD shell's hosts parked beside what is left.
	parked = (shells-1)*hosts + run(rd, db)
	check("an RD run before Close", parked)
	exited := atrest.Closing()
	p.Close()
	if err := exited(baseline); err != nil {
		t.Fatalf("right after Close: %v", err)
	}
	check("Close", 0)
}
