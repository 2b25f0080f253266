package engine_test

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/costmodel"
	"multijoin/internal/engine"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/sim"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

func testDB(t *testing.T, relations, card int, seed int64) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func baseFn(db *wisconsin.Database) func(int) *relation.Relation {
	return func(leaf int) *relation.Relation {
		if leaf < 0 || leaf >= db.NumRelations() {
			return nil
		}
		return db.Relation(leaf)
	}
}

func planFor(t *testing.T, k strategy.Kind, tree *jointree.Node, procs, card int) *xra.Plan {
	t.Helper()
	p, err := strategy.Plan(k, tree, strategy.Config{Procs: procs, Card: float64(card)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// materialized is a run's outcome with its result stream gathered into a
// relation.
type materialized struct {
	*engine.RunResult
	Result *relation.Relation
}

// gather is the materializing form of engine.RunStream these tests compare
// results with; the package itself only streams.
func gather(p *xra.Plan, base func(int) *relation.Relation, params costmodel.Params) (*materialized, error) {
	g := &operator.Gather{Rel: relation.New("result", 0)}
	res, err := engine.RunStream(context.Background(), p, base, params, g)
	if err != nil {
		return nil, err
	}
	return &materialized{RunResult: res, Result: g.Rel}, nil
}

func run(t *testing.T, p *xra.Plan, db *wisconsin.Database, params costmodel.Params) *materialized {
	t.Helper()
	res, err := gather(p, baseFn(db), params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRejectsInvalidPlan(t *testing.T) {
	if _, err := gather(&xra.Plan{}, nil, costmodel.Default()); err == nil {
		t.Error("empty plan must fail")
	}
}

func TestRunMissingBaseRelation(t *testing.T) {
	db := testDB(t, 3, 50, 1)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 3)
	p := planFor(t, strategy.SP, tree, 4, 50)
	_, err := gather(p, func(int) *relation.Relation { return nil }, costmodel.Default())
	if err == nil {
		t.Error("missing base relation must fail")
	}
	_ = db
}

func TestDeterminism(t *testing.T) {
	db := testDB(t, 6, 300, 2)
	tree, _ := jointree.BuildShape(jointree.RightBushy, 6)
	// Recorded before the simulator's event heap was inlined (PR 21): the
	// (time, sequence) firing order is a contract, so how events are stored
	// may change and these may not.
	pinned := map[strategy.Kind]struct {
		events uint64
		resp   sim.Duration
	}{
		strategy.SP: {1162, 736960},
		strategy.SE: {538, 413120},
		strategy.RD: {362, 414220},
		strategy.FP: {220, 422920},
	}
	for _, k := range strategy.Kinds {
		p := planFor(t, k, tree, 8, 300)
		a := run(t, p, db, costmodel.Default())
		b := run(t, p, db, costmodel.Default())
		want := pinned[k]
		resp := time.Duration(want.resp) * time.Microsecond
		if a.Stats.SimEvents != want.events || a.Time != resp {
			t.Errorf("%v: %d events, response time %v; pinned %d events, %v",
				k, a.Stats.SimEvents, a.Time, want.events, resp)
		}
		if a.Time != b.Time {
			t.Errorf("%v: response times differ: %v vs %v", k, a.Time, b.Time)
		}
		if a.Stats.SimEvents != b.Stats.SimEvents {
			t.Errorf("%v: event counts differ", k)
		}
		if d := relation.DiffMultiset(a.Result, b.Result); d != "" {
			t.Errorf("%v: results differ: %s", k, d)
		}

		// The same query through the front door: the sim adapter is the
		// identity on everything the simulator reports.
		c, err := core.Exec(context.Background(), core.Query{
			DB: db, Tree: tree, Strategy: k, Procs: 8, Params: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		if c.Time != resp || c.Stats.SimEvents != want.events || !c.Virtual {
			t.Errorf("%v through Exec: %d events, %v (virtual=%v); pinned %d events, %v",
				k, c.Stats.SimEvents, c.Time, c.Virtual, want.events, resp)
		}
		if len(c.Stats.OpDone) != len(p.Ops) {
			t.Errorf("%v through Exec: %d operator completions for %d operators", k, len(c.Stats.OpDone), len(p.Ops))
		}
		for id, at := range a.Stats.OpDone {
			if c.Stats.OpDone[id] != at {
				t.Errorf("%v through Exec: %s done at %v, engine says %v", k, id, c.Stats.OpDone[id], at)
			}
		}
		if d := relation.DiffMultiset(c.Result, a.Result); d != "" {
			t.Errorf("%v through Exec: %s", k, d)
		}
	}
}

func TestSPPhasesAreSequential(t *testing.T) {
	// Under SP, join k+1 must finish strictly after join k (strict phases).
	db := testDB(t, 5, 400, 3)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 5)
	p := planFor(t, strategy.SP, tree, 6, 400)
	res := run(t, p, db, costmodel.Default())
	var prev string
	for _, o := range p.Ops {
		if o.Kind != xra.OpSimpleJoin {
			continue
		}
		if prev != "" && res.Stats.OpDone[o.ID] <= res.Stats.OpDone[prev] {
			t.Errorf("SP: %s finished at %v, not after %s at %v",
				o.ID, res.Stats.OpDone[o.ID], prev, res.Stats.OpDone[prev])
		}
		prev = o.ID
	}
}

func TestIdealFragmentationKeepsScansLocal(t *testing.T) {
	// With ideal initial fragmentation, base operand tuples never cross
	// processors; only intermediate results are refragmented.
	db := testDB(t, 4, 500, 4)
	tree, _ := jointree.BuildShape(jointree.RightLinear, 4)
	p := planFor(t, strategy.FP, tree, 9, 500)
	res := run(t, p, db, costmodel.Default())
	// 4 scans deliver 4*500 local tuples; 2 intermediate edges + the
	// collect edge move tuples remotely (collect gathers at the host).
	if res.Stats.TuplesLocal < 2000 {
		t.Errorf("local tuples = %d, want >= 2000 (scan deliveries)", res.Stats.TuplesLocal)
	}
	if res.Stats.TuplesMovedRemote == 0 {
		t.Error("intermediate results must cross processors")
	}
}

func TestStatsProcessesAndStreams(t *testing.T) {
	db := testDB(t, 3, 100, 5)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 3)
	p := planFor(t, strategy.SP, tree, 4, 100)
	res := run(t, p, db, costmodel.Default())
	if res.Stats.Processes != p.NumProcesses() {
		t.Errorf("processes = %d, want %d", res.Stats.Processes, p.NumProcesses())
	}
	if res.Stats.Streams != p.NumStreams() {
		t.Errorf("streams = %d, want %d", res.Stats.Streams, p.NumStreams())
	}
	// Startup is paid for join processes only (2 joins x 4 procs).
	want := time.Duration(costmodel.Default().Startup*8) * time.Microsecond
	if res.Stats.StartupTime != want {
		t.Errorf("startup time = %v, want %v", res.Stats.StartupTime, want)
	}
	if res.Stats.HandshakeTime <= 0 {
		t.Error("handshake time must be positive")
	}
	if res.Stats.ResultTuples != 100 {
		t.Errorf("result tuples = %d", res.Stats.ResultTuples)
	}
}

func TestStartupScalesWithProcesses(t *testing.T) {
	// More processors => more operation processes => more serial startup:
	// the core of SP's degradation (Section 3.5).
	db := testDB(t, 6, 200, 6)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 6)
	small := run(t, planFor(t, strategy.SP, tree, 4, 200), db, costmodel.Default())
	big := run(t, planFor(t, strategy.SP, tree, 16, 200), db, costmodel.Default())
	if big.Stats.StartupTime <= small.Stats.StartupTime {
		t.Errorf("startup %v (16p) vs %v (4p): must grow with processors",
			big.Stats.StartupTime, small.Stats.StartupTime)
	}
	if big.Stats.Streams <= small.Stats.Streams {
		t.Error("streams must grow with processors")
	}
}

func TestFPUsesFewerProcessesThanSP(t *testing.T) {
	db := testDB(t, 10, 100, 7)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 10)
	sp := run(t, planFor(t, strategy.SP, tree, 18, 100), db, costmodel.Default())
	fp := run(t, planFor(t, strategy.FP, tree, 18, 100), db, costmodel.Default())
	if fp.Stats.Processes >= sp.Stats.Processes {
		t.Errorf("FP processes %d must be far fewer than SP's %d",
			fp.Stats.Processes, sp.Stats.Processes)
	}
	if fp.Stats.Streams >= sp.Stats.Streams {
		t.Errorf("FP streams %d must be fewer than SP's %d",
			fp.Stats.Streams, sp.Stats.Streams)
	}
}

func TestUtilizationRecording(t *testing.T) {
	db := testDB(t, 5, 300, 8)
	params := costmodel.Default()
	params.RecordUtilization = true
	p := planFor(t, strategy.FP, jointree.Example(), 10, 300)
	res := run(t, p, db, params)
	if len(res.Procs) != 10 {
		t.Fatalf("recorded %d processors, want 10", len(res.Procs))
	}
	busyTotal := 0
	for _, pr := range res.Procs {
		if len(pr.Busy()) > 0 {
			busyTotal++
			last := pr.Busy()[len(pr.Busy())-1]
			if last.End > sim.Time(res.Time/time.Microsecond) {
				t.Errorf("proc %d busy until %v, after response time %v",
					pr.ID, last.End, res.Time)
			}
		}
	}
	if busyTotal != 10 {
		t.Errorf("only %d processors did work", busyTotal)
	}
	// Without recording there is nothing to report.
	if res2 := run(t, p, db, costmodel.Default()); res2.Procs != nil {
		t.Errorf("recording disabled but %d processors reported", len(res2.Procs))
	}
	// Result.Procs is the same thing seen through Exec.
	q := core.Query{DB: db, Tree: jointree.Example(), Strategy: strategy.FP, Procs: 10, Params: params}
	viaExec, err := core.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaExec.Procs) != 10 {
		t.Fatalf("Exec reported %d processors, want 10", len(viaExec.Procs))
	}
	for i, pr := range viaExec.Procs {
		if pr.BusyTime() == 0 || pr.BusyTime() != res.Procs[i].BusyTime() {
			t.Errorf("Exec: proc %d busy %v, engine says %v", pr.ID, pr.BusyTime(), res.Procs[i].BusyTime())
		}
	}
	q.Params.RecordUtilization = false
	if viaExec, err = core.Exec(context.Background(), q); err != nil || viaExec.Procs != nil {
		t.Errorf("Exec without recording: %d processors reported, err %v", len(viaExec.Procs), err)
	}
}

func TestEventLimitAborts(t *testing.T) {
	db := testDB(t, 3, 200, 9)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 3)
	p := planFor(t, strategy.SP, tree, 4, 200)
	params := costmodel.Default()
	params.EventLimit = 10
	defer func() {
		if recover() == nil {
			t.Error("expected event-limit panic")
		}
	}()
	_, _ = gather(p, baseFn(db), params)
}

func TestBatchSizeAffectsPipelineDelay(t *testing.T) {
	// Larger transport batches delay downstream operators: FP response
	// time on a linear pipeline must grow with batch size.
	db := testDB(t, 8, 512, 10)
	tree, _ := jointree.BuildShape(jointree.RightLinear, 8)
	p := planFor(t, strategy.FP, tree, 14, 512)
	small := costmodel.Default()
	small.BatchTuples = 16
	large := costmodel.Default()
	large.BatchTuples = 512
	rs := run(t, p, db, small)
	rl := run(t, p, db, large)
	if rl.Time <= rs.Time {
		t.Errorf("batch 512 response %v not larger than batch 16 response %v",
			rl.Time, rs.Time)
	}
	if d := relation.DiffMultiset(rs.Result, rl.Result); d != "" {
		t.Errorf("batch size changed the result: %s", d)
	}
}

func TestZeroOverheadStillCorrect(t *testing.T) {
	db := testDB(t, 5, 200, 11)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 5)
	params := costmodel.Params{TupleUnit: 1, BatchTuples: 8}
	for _, k := range strategy.Kinds {
		p := planFor(t, k, tree, 6, 200)
		res := run(t, p, db, params)
		want := jointree.Reference(tree, baseFn(db))
		if d := relation.DiffMultiset(res.Result, want); d != "" {
			t.Errorf("%v with zero overheads: %s", k, d)
		}
	}
}

func TestSingleProcessorExecution(t *testing.T) {
	// SP on one processor is plain sequential execution; response time must
	// be close to total work.
	db := testDB(t, 4, 300, 12)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 4)
	p := planFor(t, strategy.SP, tree, 1, 300)
	res := run(t, p, db, costmodel.Default())
	want := jointree.Reference(tree, baseFn(db))
	if d := relation.DiffMultiset(res.Result, want); d != "" {
		t.Error(d)
	}
	if res.Stats.TuplesMovedRemote != 0 {
		t.Errorf("single processor moved %d tuples remotely", res.Stats.TuplesMovedRemote)
	}
}

// TestRandomConfigurationsMatchReference is the property-based correctness
// sweep: random shape, strategy, cardinality and machine size, always equal
// to the sequential reference.
func TestRandomConfigurationsMatchReference(t *testing.T) {
	f := func(seed int64, shapeRaw, kindRaw, procsRaw, cardRaw uint8) bool {
		shape := jointree.Shapes[int(shapeRaw)%len(jointree.Shapes)]
		kind := strategy.Kinds[int(kindRaw)%len(strategy.Kinds)]
		procs := int(procsRaw%12) + 8 // 8..19 procs (>= joins for FP)
		card := int(cardRaw%200) + 10
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(5) + 4 // 4..8 relations
		db, err := wisconsin.Chain(wisconsin.Config{Relations: k, Cardinality: card, Seed: seed})
		if err != nil {
			return false
		}
		tree, err := jointree.BuildShape(shape, k)
		if err != nil {
			return false
		}
		p, err := strategy.Plan(kind, tree, strategy.Config{Procs: procs, Card: float64(card)})
		if err != nil {
			return false
		}
		res, err := gather(p, baseFn(db), costmodel.Default())
		if err != nil {
			return false
		}
		want := jointree.Reference(tree, baseFn(db))
		return relation.EqualMultiset(res.Result, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMirroredTreeExecution: executing a mirrored tree (build/probe swapped)
// produces the identical result on the engine too.
func TestMirroredTreeExecution(t *testing.T) {
	db := testDB(t, 6, 250, 13)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 6)
	mirrored := jointree.Clone(tree)
	jointree.Mirror(mirrored)
	want := jointree.Reference(tree, baseFn(db))
	for _, k := range strategy.Kinds {
		p := planFor(t, k, mirrored, 8, 250)
		res := run(t, p, db, costmodel.Default())
		if d := relation.DiffMultiset(res.Result, want); d != "" {
			t.Errorf("%v on mirrored tree: %s", k, d)
		}
	}
}

// TestMirroringHelpsRD: Section 5 — mirroring a left-linear tree (free)
// turns it right-linear, where RD pipelines instead of degenerating to SP.
func TestMirroringHelpsRD(t *testing.T) {
	db := testDB(t, 8, 600, 14)
	tree, _ := jointree.BuildShape(jointree.LeftLinear, 8)
	mirrored := jointree.Clone(tree)
	jointree.Mirror(mirrored)
	before := run(t, planFor(t, strategy.RD, tree, 16, 600), db, costmodel.Default())
	after := run(t, planFor(t, strategy.RD, mirrored, 16, 600), db, costmodel.Default())
	if after.Time >= before.Time {
		t.Errorf("mirroring did not help RD: %v -> %v", before.Time, after.Time)
	}
}

// TestAllocationsPerEvent pins what the typed event heap bought: a run
// allocates its plan-sized state (wiring, processes, hash tables, outboxes)
// and next to nothing per event. With a closure per scheduled event and the
// event boxed into an interface on the way into and out of container/heap,
// the same two queries allocated 3.8 times per event. Measured with a
// pooled simulator and one slab of processes and queues per operator: SP
// 0.16, FP 0.17–0.175 (0.29 and 0.21 when every run grew a heap of its own
// and allocated each process and grew each queue from nil). Under -race or
// pooldebug the pools keep less of what a run returned (SP read 0.44 under
// -race) and the bound is the old 1.0.
func TestAllocationsPerEvent(t *testing.T) {
	bound := 1.0
	if exactAllocs {
		bound = 0.19 // the measured 0.175 plus 5 %, rounded up
	}
	db := testDB(t, 10, 500, 1995)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 10)
	for _, k := range []strategy.Kind{strategy.SP, strategy.FP} {
		p := planFor(t, k, tree, 20, 500)
		params := costmodel.Default()
		params.BatchTuples = 8 // small batches: events, not plan-sized state, dominate
		var events uint64
		allocs := testing.AllocsPerRun(3, func() { events = run(t, p, db, params).Stats.SimEvents })
		if perEvent := allocs / float64(events); perEvent > bound {
			t.Errorf("%v: %.0f allocations over %d events = %.2f per event, want <= %.2f", k, allocs, events, perEvent, bound)
		} else {
			t.Logf("%v: %.0f allocations over %d events = %.2f per event", k, allocs, events, perEvent)
		}
	}
}

// TestConcurrentRuns: simulated runs on several goroutines at once draw on
// the same shared pools, and each still yields the sequential reference,
// the events and the response time of a run alone.
func TestConcurrentRuns(t *testing.T) {
	db := testDB(t, 6, 300, 7)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 6)
	want := jointree.Reference(tree, baseFn(db))
	var wg sync.WaitGroup
	for _, k := range strategy.Kinds {
		p := planFor(t, k, tree, 12, 300)
		alone := run(t, p, db, costmodel.Default())
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := gather(p, baseFn(db), costmodel.Default())
				switch {
				case err != nil:
					t.Error(err)
				case !relation.EqualMultiset(res.Result, want):
					t.Errorf("%v: a concurrent run's result differs from the reference", k)
				case res.Time != alone.Time || res.Stats.SimEvents != alone.Stats.SimEvents:
					t.Errorf("%v: a concurrent run took %v and %d events, alone %v and %d", k, res.Time, res.Stats.SimEvents, alone.Time, alone.Stats.SimEvents)
				}
			}()
		}
	}
	wg.Wait()
}

// TestSimRunAllocs pins what a simulated run allocates once relation's
// shared pools hold what the run before it gave back: SP on wide-bushy
// 10×500 at 40 processors, 13 240 streams whose buffers carry a few tuples
// each. The second of two runs is measured, with the collector held off so
// that the pools keep what the first run returned — the simulator the
// first run grew among them. Measured: 1 371 KiB; 1 985 KiB when every run
// grew an event heap of its own, allocated each process on its own and
// grew each queue from nil; 1 937–1 952 KiB earlier, with each outbox
// destination's pending state a batch and its fill (16 bytes); 1 808–1 824
// KiB when the fill lived in the batch's U1 length; 4 180 KiB when every
// run drew its transport batches and result buffers from pools of its own
// and every pending buffer held a full transport batch.
func TestSimRunAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	const bound = 1440 << 10 // bytes: the measured 1 371 KiB plus 5 %
	db := testDB(t, 10, 500, 1995)
	tree, _ := jointree.BuildShape(jointree.WideBushy, 10)
	p := planFor(t, strategy.SP, tree, 40, 500)
	params := costmodel.Default()
	// Finish any collection an earlier test started: one still in flight
	// when the collector is held off would empty the pools mid-measurement.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(t, p, db, params)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streams := run(t, p, db, params).Stats.Streams
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm run over %d streams allocates %d KiB", streams, bytes>>10)
	if bytes > bound {
		t.Errorf("a warm SP run allocates %d KiB, want at most %d", bytes>>10, bound>>10)
	}
}
