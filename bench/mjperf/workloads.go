package main

import (
	"context"
	"fmt"
	"time"

	"multijoin"
	"multijoin/internal/engine"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/serve"
	"multijoin/internal/xra"
)

// workloadDef names one workload and how to set it up. Every workload is
// a closed loop: each client waits for its reply (a cursor drained, a view
// round acknowledged) before it issues the next operation.
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop callers; it is capped at
	// GOMAXPROCS so the generator never outnumbers the cores.
	clients int
	// warmup is the fixed number of operations each client runs in every
	// set-up before the timed window.
	warmup int
	setup  func(seed int64, clients int, traced bool) (instance, error)
}

// instance is one set-up workload: database generated, reference result
// computed, engine or server started, connections open.
type instance interface {
	// op runs one operation for the given client, checks its output and
	// returns the latency the client observed.
	op(client int) (time.Duration, error)
	// tracedOp runs op with spans recorded, then runs the same operation
	// again at each deeper entry point to peel the layers apart.
	tracedOp(client int, t *opTrace, rec *layerRec) error
	// finish runs after the window: checks that need the whole run.
	finish() error
	close()
	info() *setupInfo
}

// setupInfo is what set-up measured for the per-layer report.
type setupInfo struct {
	generateMS float64 // wisconsin: database generation
	createMS   float64 // ivm: view creation (population)
	plans      []*xra.Plan
	queries    []multijoin.Query
	card       int // tuples per base relation
	engine     *multijoin.Engine
}

var workloads = []workloadDef{
	{
		name:    "exec_rd",
		why:     "in-process RD on left-linear 10x20K: parallel runtime, simple hash-joins and batch pools do all the work; no wire, plan cached",
		clients: 1, warmup: 15,
		setup: func(seed int64, clients int, traced bool) (instance, error) {
			return newQueryWorkload(queryConfig{
				seed: seed, card: 20000, shape: multijoin.LeftLinear, procs: 40,
				strategies: []multijoin.Strategy{multijoin.RD}, traced: traced,
			})
		},
	},
	{
		name:    "serve_fp_stream",
		why:     "FP on left-linear 10x40K through the TCP server: pipelining joins, result re-batching, block codec, frames and credits",
		clients: 1, warmup: 25,
		setup: func(seed int64, clients int, traced bool) (instance, error) {
			return newQueryWorkload(queryConfig{
				seed: seed, card: 40000, shape: multijoin.LeftLinear, procs: 80,
				strategies: []multijoin.Strategy{multijoin.FP}, conns: clients, traced: traced,
			})
		},
	},
	{
		name:    "serve_small_cycle",
		why:     "SP,SE,RD,FP cycle on wide-bushy 10x1K over two connections: per-query fixed cost (plan cache, admission, process set-up, control frames) dominates",
		clients: 2, warmup: 22,
		setup: func(seed int64, clients int, traced bool) (instance, error) {
			return newQueryWorkload(queryConfig{
				seed: seed, card: 1000, shape: multijoin.WideBushy, procs: 16,
				strategies: multijoin.Strategies, conns: clients, traced: traced,
			})
		},
	},
	{
		name:    "view_refresh",
		why:     "signed delta rounds against a resident view on 10x40K: hash tables written (insert and delete), signed codec, VAPPLY round trip",
		clients: 1, warmup: 600,
		setup: func(seed int64, clients int, traced bool) (instance, error) {
			return newViewWorkload(seed, traced)
		},
	},
	{
		name:    "sim_sweep",
		why:     "all four strategies on the simulator, wide-bushy 10x5K at 40 processors: sim, engine, strategy and xra, which no other workload touches",
		clients: 1, warmup: 12,
		setup: func(seed int64, clients int, traced bool) (instance, error) {
			return newQueryWorkload(queryConfig{
				seed: seed, card: 5000, shape: multijoin.WideBushy, procs: 40,
				strategies: multijoin.Strategies, sim: true, traced: traced,
			})
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digest is an order-independent checksum of a tuple multiset: the tuple
// count and the wrapping sum of a per-tuple mix.
type digest struct {
	n   int64
	sum uint64
}

func (d *digest) add(t relation.Tuple) {
	h := uint64(t.Unique1)*0x9e3779b97f4a7c15 ^ uint64(t.Unique2)*0xc2b2ae3d27d4eb4f ^ t.Check
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	d.sum += h
	d.n++
}

func digestOf(ts []relation.Tuple) digest {
	var d digest
	for _, t := range ts {
		d.add(t)
	}
	return d
}

func (d digest) check(want digest) error {
	if d.n != want.n {
		return fmt.Errorf("result has %d tuples, reference has %d", d.n, want.n)
	}
	if d.sum != want.sum {
		return fmt.Errorf("result checksum %#x differs from reference %#x", d.sum, want.sum)
	}
	return nil
}

// queryConfig describes a workload whose operation is a fixed sequence of
// queries, one per strategy, over one database.
type queryConfig struct {
	seed       int64
	card       int
	shape      multijoin.Shape
	procs      int
	strategies []multijoin.Strategy
	// conns > 0 sends the queries through an in-process TCP server, one
	// connection per client; 0 calls the engine directly.
	conns int
	// sim runs on the simulator through multijoin.Exec.
	sim    bool
	traced bool
}

// queryItem is one query of the sequence with everything needed to issue
// it at any entry point and to check its result.
type queryItem struct {
	q    multijoin.Query
	spec serve.QuerySpec
	plan *xra.Plan
	// virtual is the simulator's response time for this query, set by the
	// first execution and required of every later one (sim only).
	virtual time.Duration
}

type queryWorkload struct {
	cfg   queryConfig
	db    *multijoin.Database
	want  digest
	items []queryItem
	si    setupInfo

	eng   *multijoin.Engine // nil on sim
	srv   *serve.Server
	conns []*serve.Client
	// pool is the peel's own set of modeled processors for calling
	// parallel.RunStream below the engine (traced runs only).
	pool *parallel.ProcPool
}

const relations = 10

func newQueryWorkload(cfg queryConfig) (_ *queryWorkload, err error) {
	w := &queryWorkload{cfg: cfg}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	t0 := time.Now()
	w.db, err = multijoin.NewDatabase(relations, cfg.card, cfg.seed)
	if err != nil {
		return nil, err
	}
	w.si.generateMS = ms(time.Since(t0))
	w.si.card = cfg.card
	tree, err := multijoin.BuildTree(cfg.shape, relations)
	if err != nil {
		return nil, err
	}
	// The chain join's result is the same multiset whatever the strategy.
	w.want = digestOf(multijoin.Reference(w.db, tree).Tuples)

	for _, st := range cfg.strategies {
		q := multijoin.Query{DB: w.db, Tree: tree, Strategy: st, Procs: cfg.procs, Params: multijoin.DefaultParams()}
		plan, err := q.Plan()
		if err != nil {
			return nil, err
		}
		w.items = append(w.items, queryItem{
			q: q, plan: plan,
			spec: serve.QuerySpec{Shape: cfg.shape.String(), Strategy: st.String(), Runtime: "parallel", Procs: cfg.procs},
		})
		w.si.plans = append(w.si.plans, plan)
		w.si.queries = append(w.si.queries, q)
	}
	if cfg.sim {
		for i := range w.items {
			res, err := multijoin.Exec(context.Background(), w.items[i].q)
			if err != nil {
				return nil, err
			}
			w.items[i].virtual = res.Time
		}
		if err := checkGolden(cfg.seed, w.items); err != nil {
			return nil, err
		}
		return w, nil
	}

	hostProcs := multijoin.HostCap(cfg.procs)
	w.eng, err = multijoin.Open(w.db, multijoin.WithEngineRuntime("parallel"), multijoin.WithEngineProcs(hostProcs))
	if err != nil {
		return nil, err
	}
	w.si.engine = w.eng
	if cfg.traced {
		w.pool = parallel.NewProcPool(hostProcs)
	}
	if cfg.conns > 0 {
		w.srv = serve.NewServer(w.eng, serve.Config{})
		addr, err := w.srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.conns; i++ {
			cl, err := serve.Dial(addr)
			if err != nil {
				return nil, err
			}
			w.conns = append(w.conns, cl)
		}
	}
	return w, nil
}

func (w *queryWorkload) info() *setupInfo { return &w.si }
func (w *queryWorkload) finish() error    { return nil }

func (w *queryWorkload) close() {
	for _, cl := range w.conns {
		cl.Close()
	}
	switch {
	case w.srv != nil:
		w.srv.Close() // closes the engine it owns
	case w.eng != nil:
		w.eng.Close()
	}
	if w.pool != nil {
		w.pool.Close()
	}
}

// obs is what one query execution showed at the entry point it was issued.
type obs struct {
	start      time.Time
	lat        time.Duration
	firstBatch time.Duration // submit to first DATA batch (server only)
	frames     int           // DATA batches received (server only)
	done       *serve.Done   // server-side stats (server only)
	res        *multijoin.Result
	wall       time.Duration // what the runtime reports for itself (runtime level only)
	mallocs    uint64        // heap objects allocated during the call (runtime level only)
}

// viaServer submits the query on the client's connection and receives
// every result tuple.
func (w *queryWorkload) viaServer(client int, it *queryItem) (obs, error) {
	o := obs{start: time.Now()}
	st, err := w.conns[client].Submit(it.spec)
	if err != nil {
		return o, err
	}
	var d digest
	for {
		tuples, done, err := st.Recv()
		if err != nil {
			return o, err
		}
		if done != nil {
			o.done = done
			break
		}
		if o.frames == 0 {
			o.firstBatch = time.Since(o.start)
		}
		o.frames++
		for _, t := range tuples {
			d.add(t)
		}
	}
	o.lat = time.Since(o.start)
	if o.done.Rows != d.n {
		return o, fmt.Errorf("server reports %d rows, client received %d", o.done.Rows, d.n)
	}
	return o, d.check(w.want)
}

// viaEngine runs the query in-process: the engine's streaming cursor
// drained on the parallel runtime, or a materializing Exec on the
// simulator.
func (w *queryWorkload) viaEngine(it *queryItem) (obs, error) {
	o := obs{start: time.Now()}
	ctx := context.Background()
	if w.cfg.sim {
		res, err := multijoin.Exec(ctx, it.q)
		if err != nil {
			return o, err
		}
		o.lat = time.Since(o.start)
		o.res = res
		if res.Time != it.virtual {
			return o, fmt.Errorf("%v virtual response time %v, set-up saw %v", it.q.Strategy, res.Time, it.virtual)
		}
		return o, digestOf(res.Result.Tuples).check(w.want)
	}
	rows, err := w.eng.Query(ctx, it.q)
	if err != nil {
		return o, err
	}
	var d digest
	for rows.Next() {
		d.add(rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		return o, err
	}
	o.lat = time.Since(o.start)
	o.res, _ = rows.Result()
	return o, d.check(w.want)
}

// countSink releases every batch at once; it only counts tuples, so the
// call measures the runtime without any consumer.
type countSink struct{ n int64 }

func (s *countSink) Push(_ context.Context, b *relation.Batch, release func()) error {
	s.n += int64(b.Len())
	if release != nil {
		release()
	}
	return nil
}

// viaRuntime hands the cached plan straight to the runtime below the
// engine: no admission, no cursor.
func (w *queryWorkload) viaRuntime(it *queryItem) (obs, error) {
	base := func(leaf int) *relation.Relation { return w.db.Relation(leaf) }
	var sink countSink
	m0 := heapObjectsAllocated()
	o := obs{start: time.Now()}
	var err error
	if w.cfg.sim {
		_, err = engine.RunStream(context.Background(), it.plan, base, it.q.Params, &sink)
	} else {
		var res *parallel.RunResult
		res, err = parallel.RunStream(context.Background(), it.plan, base, parallel.Config{Pool: w.pool}, &sink)
		if err == nil {
			o.wall = res.WallTime
		}
	}
	o.lat = time.Since(o.start)
	if err != nil {
		return o, err
	}
	o.mallocs = heapObjectsAllocated() - m0
	if sink.n != w.want.n {
		return o, fmt.Errorf("runtime produced %d tuples, reference has %d", sink.n, w.want.n)
	}
	return o, nil
}

func (w *queryWorkload) top(client int, it *queryItem) (obs, error) {
	if w.conns != nil {
		return w.viaServer(client, it)
	}
	return w.viaEngine(it)
}

func (w *queryWorkload) op(client int) (time.Duration, error) {
	t0 := time.Now()
	for i := range w.items {
		if _, err := w.top(client, &w.items[i]); err != nil {
			return 0, fmt.Errorf("%v: %w", w.items[i].q.Strategy, err)
		}
	}
	return time.Since(t0), nil
}

// Span names of the query workloads, outermost first.
const (
	spanClient    = "serve.client"
	spanEngine    = "core.engine_query"
	spanQueueWait = "core.queue_wait"
	spanRuntime   = "runtime.run_stream"
	spanExecWall  = "runtime.exec_wall"
)

// tracedOp records one operation as a chain of nested spans, outermost
// first: the client's view of the served query, the engine call, the
// admission wait and the runtime call inside it, and inside that the wall
// time the runtime reports for itself (launch of the first operation
// process to exit of the last). The outermost span is measured in place,
// and the program reports that execution's queue wait and runtime wall
// time. The deeper levels are reached by running the same queries again at
// that entry point. Of such a re-execution only the overhead counts: its
// latency less the queue wait and runtime wall time it reports itself, so
// that the runtime's run-to-run variation (a collection more or less, 10%
// of an operation) stays out of the layers' self times, which are 1-5% of
// it. A peeled span is the root execution's queue wait and wall time plus
// the overhead seen at its own level.
func (w *queryWorkload) tracedOp(client int, t *opTrace, rec *layerRec) error {
	served := w.conns != nil
	run := func(level string, fn func(it *queryItem) (obs, error)) ([]obs, time.Duration, error) {
		out := make([]obs, len(w.items))
		var sum time.Duration
		for i := range w.items {
			o, err := fn(&w.items[i])
			if err != nil {
				return nil, 0, fmt.Errorf("%s level, %v: %w", level, w.items[i].q.Strategy, err)
			}
			out[i] = o
			sum += o.lat
		}
		return out, sum, nil
	}

	// root is the span measured in place; queueWait and execWall are what
	// the program reported for that execution.
	var root int
	var queueWait, execWall time.Duration
	if served {
		start := time.Now()
		tops, _, err := run("client", func(it *queryItem) (obs, error) { return w.viaServer(client, it) })
		if err != nil {
			return err
		}
		lat := time.Since(start)
		root = t.addAt(spanClient, 0, start, lat)
		rec.add("lat.root_ms", ms(lat))
		var selfMS, frames float64
		for _, o := range tops {
			selfMS += ms(o.lat - o.done.Wall)
			frames += float64(o.frames)
			queueWait += o.done.QueueWait
			execWall += o.done.Wall
			rec.add("serve.first_batch_ms", ms(o.firstBatch))
			rec.add("core.queue_wait_us", us(o.done.QueueWait))
		}
		rec.add("serve.self_ms", selfMS)
		rec.add("serve.data_frames", frames)
	}

	engStart := time.Now()
	engs, engLat, err := run("engine", w.viaEngine)
	if err != nil {
		return err
	}
	var moved, batches, goroutines, events, simpleIn, pipeIn float64
	var startup, handshake, engQueue, engWall time.Duration
	for i, o := range engs {
		s := o.res.Stats
		delivered := float64(s.TuplesMovedRemote + s.TuplesLocal)
		moved += delivered
		// Everything delivered went into a join except the result itself.
		if w.items[i].q.Strategy == multijoin.FP {
			pipeIn += delivered - float64(s.ResultTuples)
		} else {
			simpleIn += delivered - float64(s.ResultTuples)
		}
		batches += float64(s.Batches)
		goroutines += float64(s.Goroutines)
		events += float64(s.SimEvents)
		startup += s.StartupTime
		handshake += s.HandshakeTime
		if w.cfg.sim {
			rec.add("sim.virtual_resp_s."+w.items[i].q.Strategy.String(), o.res.Time.Seconds())
			continue // Result.Time is virtual here: no wall time to take off
		}
		engQueue += s.QueueWait
		engWall += o.res.Time
		if !served {
			rec.add("core.queue_wait_us", us(s.QueueWait))
		}
		if o.res.Time > 0 {
			rec.add("core.est_over_actual", float64(s.EstimatedCost)/float64(o.res.Time))
		}
	}
	rec.add("tuples_moved", moved)
	rec.add("batches", batches)
	rec.add("goroutines", goroutines)
	rec.add("join_tuples.simple", simpleIn)
	rec.add("join_tuples.pipelining", pipeIn)
	if w.cfg.sim {
		rec.add("sim.events", events)
		rec.add("engine.startup_virtual_s", startup.Seconds())
		rec.add("engine.handshake_virtual_s", handshake.Seconds())
	}

	rts, rtLat, err := run("runtime", w.viaRuntime)
	if err != nil {
		return err
	}
	var mallocs float64
	var rtWall time.Duration
	for _, o := range rts {
		mallocs += float64(o.mallocs)
		rtWall += o.wall
	}
	rec.add("runtime_ms", ms(rtLat))
	rec.add("runtime_mallocs", mallocs)

	// What each level adds around the runtime's own wall time.
	aboveEngine, aboveRuntime := engLat-engQueue-engWall, rtLat-rtWall
	rec.add("core.self_us", us(aboveEngine-aboveRuntime))
	var engSpan int
	if served {
		engSpan = t.addPeeled(spanEngine, root, 0, queueWait+execWall+aboveEngine)
	} else {
		engSpan = t.addAt(spanEngine, 0, engStart, engLat)
		rec.add("lat.root_ms", ms(engLat))
		queueWait, execWall = engQueue, engWall
	}
	if queueWait > 0 {
		t.addPeeled(spanQueueWait, engSpan, 0, queueWait)
	}
	rtSpan := t.addPeeled(spanRuntime, engSpan, queueWait, execWall+aboveRuntime)
	if execWall > 0 {
		// The runtime starts its clock after it has built processes and
		// streams; the rest of its span is that set-up and the teardown.
		t.addPeeled(spanExecWall, rtSpan, aboveRuntime/2, execWall)
	}
	return nil
}
