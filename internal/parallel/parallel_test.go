package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// testDB returns a small deterministic chain database (seed-pinned so every
// run, including CI's -race runs, sees identical data).
func testDB(t testing.TB, relations, card int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// exec runs q on the goroutine runtime through the one entry point every
// caller uses, with cfg's knobs as options.
func exec(q core.Query, cfg parallel.Config, opts ...core.Option) (*core.Result, error) {
	opts = append(opts, core.WithRuntime("parallel"), core.WithMaxProcs(cfg.MaxProcs),
		core.WithBatchTuples(cfg.BatchTuples), core.WithChannelDepth(cfg.ChannelDepth))
	return core.Exec(context.Background(), q, opts...)
}

// TestResultEquivalence checks the acceptance criterion: the goroutine
// runtime returns the identical result multiset as the sequential reference
// (and therefore as the simulator, which is verified against the same
// reference elsewhere) for all four strategies on linear and wide-bushy
// trees.
func TestResultEquivalence(t *testing.T) {
	db := testDB(t, 6, 400)
	shapes := []jointree.Shape{jointree.LeftLinear, jointree.RightLinear, jointree.WideBushy}
	for _, shape := range shapes {
		tree, err := jointree.BuildShape(shape, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Reference(db, tree)
		for _, kind := range strategy.Kinds {
			t.Run(fmt.Sprintf("%v/%v", shape, kind), func(t *testing.T) {
				q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 12}
				res, err := exec(q, parallel.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if diff := relation.DiffMultiset(res.Result, want); diff != "" {
					t.Fatalf("%v/%v: parallel result differs from reference: %s", shape, kind, diff)
				}
				if res.Stats.ResultTuples != want.Card() {
					t.Fatalf("ResultTuples = %d, want %d", res.Stats.ResultTuples, want.Card())
				}
			})
		}
	}
}

// TestSimulatorEquivalence runs the same plan through both runtimes and
// compares the result multisets directly.
func TestSimulatorEquivalence(t *testing.T) {
	db := testDB(t, 5, 300)
	tree, err := jointree.BuildShape(jointree.WideBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range strategy.Kinds {
		q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}
		sim, err := core.Exec(context.Background(), q, core.WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		par, err := exec(q, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := relation.DiffMultiset(par.Result, sim.Result); diff != "" {
			t.Fatalf("%v: parallel vs simulator: %s", kind, diff)
		}
	}
}

// TestStructuralCounters checks that the runtime reports exactly the
// stream and process structure the plan declares — the quantities the
// simulator counts on the virtual machine, pinned to the values the
// run-queue scheduler reported for the same seed-pinned plans — whatever the
// number of slots, while what it physically spends follows the slots: one
// goroutine per host (the processes of an operator that share a slot), with
// no per-stream, no per-processor and no per-dependency term, all
// of them gone when the run returns or is cancelled mid-query, and one
// pending buffer per host and destination, so fewer and fuller batches the
// fewer slots there are. With as many slots as plan processors a host is a
// process, and batches and goroutines are the run-queue scheduler's too:
// coalescing is a function of the slots only.
func TestStructuralCounters(t *testing.T) {
	golden := map[strategy.Kind]operator.Counters{
		strategy.SP: {Processes: 381, Streams: 3420, TuplesMovedRemote: 1531, TuplesLocal: 2069, ResultTuples: 200},
		strategy.SE: {Processes: 129, Streams: 772, TuplesMovedRemote: 1427, TuplesLocal: 2173, ResultTuples: 200},
		strategy.RD: {Processes: 167, Streams: 767, TuplesMovedRemote: 1504, TuplesLocal: 2096, ResultTuples: 200},
		strategy.FP: {Processes: 41, Streams: 66, TuplesMovedRemote: 1600, TuplesLocal: 2000, ResultTuples: 200},
	}
	const procs, fewSlots = 20, 4
	batches := map[strategy.Kind]map[int]int64{ // by slots
		strategy.SP: {fewSlots: 340, procs: 1481},
		strategy.SE: {fewSlots: 202, procs: 604},
		strategy.RD: {fewSlots: 233, procs: 675},
		strategy.FP: {fewSlots: 64, procs: 64}, // one process per operator and slot at this size
	}
	db := testDB(t, 10, 200)
	tree, err := jointree.BuildShape(jointree.WideBushy, 10)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		if err := atrest.Goroutines(baseline, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for _, kind := range strategy.Kinds {
		q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs}
		plan, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumProcesses() != golden[kind].Processes || plan.NumStreams() != golden[kind].Streams {
			t.Fatalf("%v: plan declares %d processes and %d streams, golden %+v", kind, plan.NumProcesses(), plan.NumStreams(), golden[kind])
		}
		for _, slots := range []int{fewSlots, procs} {
			res, err := exec(q, parallel.Config{MaxProcs: slots})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MaxProcs != slots {
				t.Errorf("%v: MaxProcs = %d, want %d", kind, res.Stats.MaxProcs, slots)
			}
			want := golden[kind]
			want.Batches = batches[kind][slots]
			if res.Stats.Counters != want {
				t.Errorf("%v on %d slots: Counters = %+v, want %+v", kind, slots, res.Stats.Counters, want)
			}
			hosts := 0
			for _, op := range plan.Ops {
				used := map[int]bool{}
				for _, p := range op.Procs {
					used[((p%slots)+slots)%slots] = true
				}
				hosts += len(used)
			}
			if slots == procs && hosts != plan.NumProcesses() {
				t.Fatalf("%v: %d hosts on %d slots, want one per process (%d)", kind, hosts, slots, plan.NumProcesses())
			}
			if res.Stats.Goroutines != hosts {
				t.Errorf("%v on %d slots: Goroutines = %d, want one per host = %d",
					kind, slots, res.Stats.Goroutines, hosts)
			}
			if len(res.Stats.OpDone) != len(plan.Ops) {
				t.Errorf("%v: OpDone has %d entries, want %d", kind, len(res.Stats.OpDone), len(plan.Ops))
			}
			if res.Time <= 0 {
				t.Errorf("%v: Time = %v, want > 0", kind, res.Time)
			}
			settled(fmt.Sprintf("%v after the run on %d slots", kind, slots))
		}

		// Cancel from inside the result stream: the query is mid-flight.
		ctx, cancel := context.WithCancel(context.Background())
		_, err = parallel.RunStream(ctx, plan, db.Relation, parallel.Config{MaxProcs: fewSlots, BatchTuples: 8},
			sinkFunc(func(*relation.Batch) { cancel() }))
		if err == nil {
			t.Errorf("%v: cancelled run returned no error", kind)
		}
		settled(fmt.Sprintf("%v after a mid-query cancel", kind))
	}
}

// TestHostedProcesses: how many processes a worker hosts is invisible in
// what a run computes and in the plan properties it reports. Every strategy
// on both tree extremes runs on 1, 2, 3 and 7 slots and on the plan's own
// processor count, with depth-1 inboxes: the result is the reference multiset
// and the counters other than Batches are the same on every slot count. SP,
// SE and RD bring operators that wait for After dependencies which are their
// own producers; a producer completes only after it punctuated, so all it
// sent is in the waiting worker's stash by then, and on one slot that worker
// hosts every process of the operator — a replay to the wrong process would
// probe the wrong hash partition and lose result tuples.
func TestHostedProcesses(t *testing.T) {
	db := testDB(t, 6, 400)
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
		tree, err := jointree.BuildShape(shape, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Reference(db, tree)
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 12}
			plan, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			stashes := false
			for _, op := range plan.Ops {
				stashes = stashes || len(op.After) > 0 && len(op.Procs) > 1
			}
			if stashes == (kind == strategy.FP) {
				t.Fatalf("%v/%v: operators that wait with several processes: %v", shape, kind, stashes)
			}
			var props operator.Counters
			for i, slots := range []int{1, 2, 3, 7, plan.MaxProc() + 1} {
				res, err := exec(q, parallel.Config{MaxProcs: slots, ChannelDepth: 1})
				if err != nil {
					t.Fatalf("%v/%v on %d slots: %v", shape, kind, slots, err)
				}
				if diff := relation.DiffMultiset(res.Result, want); diff != "" {
					t.Fatalf("%v/%v on %d slots: %s", shape, kind, slots, diff)
				}
				got := res.Stats.Counters
				got.Batches = 0
				if i == 0 {
					props = got
				} else if got != props {
					t.Errorf("%v/%v on %d slots: plan properties %+v, on one slot %+v", shape, kind, slots, got, props)
				}
			}
		}
	}
}

// TestHostedCancel: a run whose workers host several processes each unwinds
// from a context cancelled before it starts and from one cancelled from
// inside its result stream with no goroutine left but those the ProcPool
// keeps parked (Parked), and the batches it stranded do not disturb the
// next query on the same ProcPool.
func TestHostedCancel(t *testing.T) {
	db := testDB(t, 6, 2000)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	pool := parallel.NewProcPool(2)
	defer pool.Close()
	cfg := parallel.Config{Pool: pool, BatchTuples: 32}
	baseline := runtime.NumGoroutine()
	// A cancelled run's shell is dropped with its hosts; a completed run's
	// hosts stay parked on the pool for the next run of its plan.
	atBaseline := func(when string) {
		t.Helper()
		if err := atrest.Goroutines(baseline+pool.Parked(), 5*time.Second); err != nil {
			t.Fatalf("%s: %v (baseline %d, %d parked)", when, err, baseline, pool.Parked())
		}
	}
	for _, kind := range strategy.Kinds {
		plan, err := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 12}.Plan()
		if err != nil {
			t.Fatal(err)
		}
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := parallel.RunStream(dead, plan, db.Relation, cfg, sinkFunc(nil)); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: pre-cancelled run returned %v, want context.Canceled", kind, err)
		}
		atBaseline(fmt.Sprintf("%v pre-cancelled", kind))

		ctx, cancel := context.WithCancel(context.Background())
		if _, err := parallel.RunStream(ctx, plan, db.Relation, cfg, sinkFunc(func(*relation.Batch) { cancel() })); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: run cancelled mid-query returned %v, want context.Canceled", kind, err)
		}
		atBaseline(fmt.Sprintf("%v cancelled mid-query", kind))

		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		res, err := parallel.RunStream(context.Background(), plan, db.Relation, cfg, got)
		if err != nil {
			t.Fatalf("%v after the cancelled runs: %v", kind, err)
		}
		if res.Stats.Goroutines >= res.Stats.Processes {
			t.Fatalf("%v: %d goroutines for %d processes: nothing is hosted", kind, res.Stats.Goroutines, res.Stats.Processes)
		}
		if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
			t.Errorf("%v after the cancelled runs: %s", kind, diff)
		}
		atBaseline(fmt.Sprintf("%v completed", kind))
	}
}

// TestSpillCancelReleasesJoins: an out-of-core run whose hosts hold several
// Grace joins each, cancelled from inside its result stream — the first
// join drains while the others still hold their partitions — closes every
// partition file as its hosts exit and leaves no temp directory; the same
// run to completion matches the reference and leaves its meter at zero.
func TestSpillCancelReleasesJoins(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := testDB(t, 5, 1000)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	fds := func() int {
		ents, _ := os.ReadDir("/proc/self/fd")
		return len(ents)
	}
	for _, kind := range strategy.Kinds {
		plan, err := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 12}.Plan()
		if err != nil {
			t.Fatal(err)
		}
		before := fds()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := parallel.Config{MaxProcs: 2, Meter: spill.NewMeter(512)}
		if _, err := parallel.RunStream(ctx, plan, db.Relation, cfg, sinkFunc(func(*relation.Batch) { cancel() })); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: run cancelled mid-query returned %v, want context.Canceled", kind, err)
		}
		if after := fds(); after > before {
			t.Errorf("%v: %d open files after the cancelled run, %d before", kind, after, before)
		}
		cfg.Meter = spill.NewMeter(512)
		got := &operator.Gather{Rel: relation.New("got", want.TupleBytes)}
		res, err := parallel.RunStream(context.Background(), plan, db.Relation, cfg, got)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if diff := relation.DiffMultiset(got.Rel, want); diff != "" {
			t.Errorf("%v: %s", kind, diff)
		}
		if res.Stats.SpillPartitions == 0 || cfg.Meter.Live() != 0 {
			t.Errorf("%v: %d partitions spilled, %d bytes live after the run", kind, res.Stats.SpillPartitions, cfg.Meter.Live())
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%v: %d temp directories left", kind, len(left))
		}
	}
}

// sinkFunc adapts a function to the Sink contract, releasing every batch.
type sinkFunc func(*relation.Batch)

func (f sinkFunc) Push(_ context.Context, b *relation.Batch, release func()) error {
	f(b)
	release()
	return nil
}

// TestProcessorCapExtremes runs with the tightest possible cap (a single
// slot serializing every operation process) and a cap far above the plan's
// parallelism: both must produce the reference result. MaxProcs=1 in
// particular proves no process ever waits on a channel while it holds the
// slot every other process needs.
func TestProcessorCapExtremes(t *testing.T) {
	db := testDB(t, 5, 300)
	tree, err := jointree.BuildShape(jointree.WideBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, maxProcs := range []int{1, 2, 64} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}
			res, err := exec(q, parallel.Config{MaxProcs: maxProcs})
			if err != nil {
				t.Fatalf("MaxProcs=%d %v: %v", maxProcs, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("MaxProcs=%d %v: %s", maxProcs, kind, diff)
			}
		}
	}
}

// TestBatchAndDepthExtremes exercises pipelining granularity edge cases:
// single-tuple batches (maximal stream traffic) and depth-1 channels
// (maximal backpressure) — the configurations most likely to deadlock a
// buggy dependency or build-phase gate.
func TestBatchAndDepthExtremes(t *testing.T) {
	db := testDB(t, 4, 150)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, cfg := range []parallel.Config{
		{BatchTuples: 1, ChannelDepth: 1},
		{BatchTuples: 7, ChannelDepth: 1},
		{BatchTuples: 1024, ChannelDepth: 2},
	} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
			res, err := exec(q, cfg)
			if err != nil {
				t.Fatalf("%+v %v: %v", cfg, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("%+v %v: %s", cfg, kind, diff)
			}
		}
	}
}

// TestPooledPathEquivalence pins the allocation-free data path — pooled
// batches, open-addressing hash tables, per-processor slots — to the
// sequential reference at the BenchmarkExecAlloc shape (left-linear, 80
// plan processors), with batch sizes small enough to force heavy pool
// recycling. The provenance checksums in the multiset comparison prove
// every tuple was combined exactly once: a batch recycled while still
// aliased anywhere would corrupt a checksum and fail the diff.
func TestPooledPathEquivalence(t *testing.T) {
	db := testDB(t, 6, 400)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, cfg := range []parallel.Config{
		{MaxProcs: 1, BatchTuples: 3, ChannelDepth: 1},
		{MaxProcs: 3, BatchTuples: 16, ChannelDepth: 2},
		{BatchTuples: 64}, // the plan's own 80 processors, one slot each
	} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 80}
			res, err := exec(q, cfg)
			if err != nil {
				t.Fatalf("%+v %v: %v", cfg, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("%+v %v: %s", cfg, kind, diff)
			}
		}
	}
}

// TestVerify exercises the public verification path.
func TestVerify(t *testing.T) {
	db := testDB(t, 5, 250)
	tree, err := jointree.BuildShape(jointree.RightBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range strategy.Kinds {
		if _, err := exec(core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}, parallel.Config{}, core.WithVerify()); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestRaceStress is the -race stress test: many concurrent small queries
// across every strategy, exercising scheduler interleavings of workers
// and their After dependencies. Data is seed-pinned; only goroutine
// scheduling varies between runs.
func TestRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	db := testDB(t, 4, 120)
	trees := make([]*jointree.Node, 0, 2)
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
		tree, err := jointree.BuildShape(shape, 4)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	wants := []*relation.Relation{core.Reference(db, trees[0]), core.Reference(db, trees[1])}
	const rounds = 8
	errc := make(chan error, rounds*len(strategy.Kinds)*len(trees))
	for round := 0; round < rounds; round++ {
		for ti, tree := range trees {
			for _, kind := range strategy.Kinds {
				tree, kind, want := tree, kind, wants[ti]
				go func() {
					q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
					res, err := exec(q, parallel.Config{BatchTuples: 16, ChannelDepth: 1})
					if err != nil {
						errc <- err
						return
					}
					if diff := relation.DiffMultiset(res.Result, want); diff != "" {
						errc <- fmt.Errorf("%v: %s", kind, diff)
						return
					}
					errc <- nil
				}()
			}
		}
	}
	for i := 0; i < rounds*len(strategy.Kinds)*len(trees); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidPlan checks input validation paths.
func TestInvalidPlan(t *testing.T) {
	if _, err := parallel.RunStream(context.Background(), &xra.Plan{}, nil, parallel.Config{}, sinkFunc(nil)); err == nil {
		t.Fatal("empty plan must be rejected")
	}
}
