package main

import (
	"math/rand"
	"sync"
	"time"

	"multijoin"
	"multijoin/internal/hashjoin"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// layerRec collects the per-operation observations of a traced window,
// keyed by an internal name; the report takes their medians.
type layerRec struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newLayerRec() *layerRec { return &layerRec{vals: make(map[string][]float64)} }

func (r *layerRec) add(key string, v float64) {
	r.mu.Lock()
	r.vals[key] = append(r.vals[key], v)
	r.mu.Unlock()
}

func (r *layerRec) median(key string) float64 { return median(r.vals[key]) }

// timeMedian runs fn rounds times and returns the median duration.
func timeMedian(rounds int, fn func()) time.Duration {
	ds := make([]float64, rounds)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeSizes are the operand sizes the kernel probes run on, taken from
// the workload's own plan.
type probeSizes struct {
	operand int // tuples one join process holds in its table
	fanout  int // destinations of one redistribution
	batch   int // tuples per transport batch
}

func sizesOf(plan *xra.Plan, card int) probeSizes {
	s := probeSizes{operand: card, fanout: 1, batch: transportBatch}
	for _, op := range plan.Ops {
		if op.Kind == xra.OpSimpleJoin || op.Kind == xra.OpPipeJoin {
			s.fanout = len(op.Procs)
			s.operand = max(card/len(op.Procs), 1)
			break
		}
	}
	return s
}

const probeRounds = 9

// transportBatch is the goroutine runtimes' default tuples per batch: what
// a batch could have carried.
const transportBatch = parallel.DefaultBatchTuples

// kernelProbes times each layer's public kernels on the workload's operand
// sizes. The figures are per tuple (or per call) on one core with warm
// caches: what the layer costs when nothing else runs.
func kernelProbes(sz probeSizes, seed int64) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]float64)

	// An operand of distinct keys, as the chain workload's are, cut into
	// transport batches.
	n := sz.operand
	perm := rng.Perm(n)
	var batches []*relation.Batch
	for lo := 0; lo < n; lo += sz.batch {
		hi := min(lo+sz.batch, n)
		b := relation.NewBatch(sz.batch)
		for _, k := range perm[lo:hi] {
			b.Append(int64(k), int64(perm[n-1-k]), rng.Uint64())
		}
		batches = append(batches, b)
	}
	perTuple := func(d time.Duration, tuples int) float64 { return float64(d) / float64(tuples) }

	// hashjoin: build (simple join's table), probe, pipelining, delete.
	var table *hashjoin.Table
	build := func() {
		if table != nil {
			table.Release()
		}
		table = hashjoin.NewTableSized(relation.Unique1, n)
		for _, b := range batches {
			table.InsertBatchRadix(b)
		}
	}
	out["hashjoin.build_ns_per_tuple"] = perTuple(timeMedian(probeRounds, build), n)
	dst := relation.NewBatch(sz.batch)
	var heads []int32
	out["hashjoin.probe_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for _, b := range batches {
			dst.Reset()
			heads = table.ProbeBatchInto(dst, b, relation.Unique1, true, heads)
		}
	}), n)
	out["hashjoin.pipelining_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		j := hashjoin.NewPipeliningSized(hashjoin.Spec{BuildIsLower: true}, n)
		for _, b := range batches {
			dst.Reset()
			j.FromBuildSideBatchInto(dst, b)
			dst.Reset()
			j.FromProbeSideBatchInto(dst, b)
		}
		j.Release()
	}), 2*n)
	// Delete the operand again, batch by batch; the rebuild between rounds
	// is not timed.
	ds := make([]float64, probeRounds)
	for r := range ds {
		build()
		t0 := time.Now()
		for _, b := range batches {
			table.DeleteBatch(b)
		}
		ds[r] = float64(time.Since(t0))
	}
	out["hashjoin.delete_ns_per_tuple"] = median(ds) / float64(n)
	table.Release()

	// relation: redistribution routing, block codec, batch pool.
	bk := relation.NewBucketer(sz.fanout)
	outs := make([]*relation.Batch, sz.fanout)
	for i := range outs {
		outs[i] = relation.NewBatch(sz.batch)
	}
	out["relation.route_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for _, b := range batches {
			keys := b.Col(relation.Unique2)
			for i, k := range keys {
				o := outs[bk.Bucket(k)]
				if o.Len() == o.Cap() {
					o.Reset()
				}
				o.Append(b.U1[i], b.U2[i], b.Check[i])
			}
		}
	}), n)

	full := batches[0]
	del := relation.NewBatch(deltaTuples)
	del.AppendRange(full, 0, min(deltaTuples, full.Len()))
	var wire []byte
	out["relation.encode_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for i := 0; i < 64; i++ {
			wire = relation.AppendBlocksBytes(wire[:0], full, 0)
		}
	}), 64*full.Len())
	out["relation.wire_bytes_per_tuple"] = float64(len(wire)) / float64(full.Len())
	dec := relation.NewBatch(full.Len())
	out["relation.decode_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for i := 0; i < 64; i++ {
			dec.Reset()
			if err := dec.AppendBlocks(wire); err != nil {
				panic(err) // the bytes were encoded two lines up
			}
		}
	}), 64*full.Len())
	var signed []byte
	out["relation.signed_encode_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for i := 0; i < 64; i++ {
			signed = relation.AppendSignedBlocksBytes(signed[:0], del, del, 0)
		}
	}), 64*2*del.Len())
	ins2, del2 := relation.NewBatch(del.Len()), relation.NewBatch(del.Len())
	out["relation.signed_decode_ns_per_tuple"] = perTuple(timeMedian(probeRounds, func() {
		for i := 0; i < 64; i++ {
			ins2.Reset()
			del2.Reset()
			if err := relation.DecodeSignedBlocks(signed, ins2, del2); err != nil {
				panic(err) // the bytes were encoded two lines up
			}
		}
	}), 64*2*del.Len())
	pool := relation.NewBatchPool(sz.batch, 4)
	pool.Put(pool.Get())
	out["relation.pool_get_put_ns"] = float64(timeMedian(probeRounds, func() {
		for i := 0; i < 4096; i++ {
			pool.Put(pool.Get())
		}
	})) / 4096
	return out
}

// planProbes times planning and the plan text codec on the workload's own
// queries and reads the plans' exact process and stream counts.
func planProbes(si *setupInfo) map[string]float64 {
	out := make(map[string]float64)
	var procs, streams int
	for _, p := range si.plans {
		procs += p.NumProcesses()
		streams += p.NumStreams()
	}
	out["xra.processes"] = float64(procs)
	out["xra.streams"] = float64(streams)
	out["strategy.plan_us"] = us(timeMedian(probeRounds, func() {
		for _, q := range si.queries {
			if _, err := q.Plan(); err != nil {
				panic(err) // the same query planned in set-up
			}
		}
	}))
	out["xra.encode_parse_us"] = us(timeMedian(probeRounds, func() {
		for _, p := range si.plans {
			if _, err := multijoin.ParsePlan(multijoin.EncodePlan(p)); err != nil {
				panic(err) // Encode's own output
			}
		}
	}))
	return out
}
