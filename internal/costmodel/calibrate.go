// Calibration: fitting the abstract cost model to this host.
//
// The paper's cost function counts abstract per-tuple work units (hash,
// probe, receive, result — Section 4.3); Params turns them into *virtual*
// time on the simulated 1995 machine. For the advisor and the Engine's
// cost-based admission to predict anything about a run on the goroutine
// runtimes, one more number is needed: what one work unit costs in wall
// time on the machine actually executing. Calibrate measures exactly that
// with micro-runs of the runtime's own kernels — hash-table build, batch
// probe, batch transport through a channel, goroutine startup — and fits a
// per-unit wall cost by least squares over the unit weights the model
// assigns those actions.
package costmodel

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
	"multijoin/internal/sim"
)

// Calibration holds host-measured wall costs of the cost model's abstract
// actions, fitted by Calibrate. The zero value means "not calibrated"; use
// IsZero to detect it.
type Calibration struct {
	// HashNanos is the measured wall cost of hashing one tuple into a hash
	// table (the model's UnitsHash action).
	HashNanos float64
	// ProbeNanos is the measured per-tuple wall cost of probing a complete
	// table and emitting the (one, on the chain workload) result tuple —
	// the model's UnitsProbe + UnitsResult actions.
	ProbeNanos float64
	// TransportNanos is the measured per-tuple wall cost of moving a tuple
	// through a pooled transport batch and a channel (UnitsNetReceive).
	TransportNanos float64
	// BatchNanos is the fixed per-batch channel/handoff overhead, separated
	// from TransportNanos by measuring two batch sizes — the wall analogue
	// of Params.NetLatency.
	BatchNanos float64
	// StartupNanos is the measured cost of launching one goroutine — the
	// wall analogue of Params.Startup for one operation process.
	StartupNanos float64
	// UnitNanos is the least-squares fit of the wall cost of one abstract
	// work unit over the three per-tuple observations above. It is the
	// number the Engine's admission policy multiplies JoinCost sums by.
	UnitNanos float64
}

// IsZero reports whether the calibration is the zero value (not measured).
func (c Calibration) IsZero() bool { return c == Calibration{} }

// EstimateWall converts an abstract work-unit total into predicted wall
// time on the calibrated host, assuming the work spreads over procs
// processors with perfect speedup. procs < 1 means 1.
func (c Calibration) EstimateWall(units float64, procs int) time.Duration {
	if procs < 1 {
		procs = 1
	}
	if units <= 0 || c.UnitNanos <= 0 {
		return 0
	}
	return time.Duration(units * c.UnitNanos / float64(procs))
}

// Params maps the calibration onto the simulator's machine model: every
// duration of Default() is rescaled by the ratio of the fitted unit cost to
// the default TupleUnit, so the virtual clock ticks at this host's speed
// while the model's relative structure (startup ≫ handshake ≫ per-tuple)
// is preserved. sim.Duration is microsecond-granular, so sub-microsecond
// action costs quantize: durations are clamped to at least one tick, and
// wall predictions should use EstimateWall (exact) rather than the
// returned Params.
func (c Calibration) Params() Params {
	p := Default()
	if c.UnitNanos <= 0 {
		return p
	}
	scale := c.UnitNanos / (float64(p.TupleUnit) * 1e3) // default unit in ns
	rescale := func(d sim.Duration) sim.Duration {
		s := sim.Duration(math.Round(float64(d) * scale))
		if s < 1 {
			s = 1
		}
		return s
	}
	p.TupleUnit = rescale(p.TupleUnit)
	p.Startup = rescale(p.Startup)
	p.Handshake = rescale(p.Handshake)
	p.NetLatency = rescale(p.NetLatency)
	return p
}

// CalibrateOptions scales the calibration micro-runs.
type CalibrateOptions struct {
	// Tuples is the operand size of each micro-run. Zero means 1<<15 —
	// large enough that per-tuple costs dominate fixed setup, small enough
	// to finish in tens of milliseconds.
	Tuples int
	// Rounds is how many times each micro-run repeats; the median timing is
	// kept (micro-benchmarks without a harness need outlier rejection).
	// Zero means 3.
	Rounds int
}

// Calibrate runs the micro-run sweep and fits a Calibration. It executes
// the runtime's own kernels — hashjoin table build and vectorized probe,
// pooled-batch transport through a buffered channel at two batch sizes (to
// separate per-tuple copy cost from per-batch handoff cost), goroutine
// startup — and returns an error if any fitted cost comes out non-finite
// or non-positive (a broken clock, not a usable model).
func Calibrate(opt CalibrateOptions) (Calibration, error) {
	n := opt.Tuples
	if n < 1 {
		n = 1 << 15
	}
	if n < 256 {
		n = 256 // below this, fixed overheads drown the per-tuple signal
	}
	rounds := opt.Rounds
	if rounds < 1 {
		rounds = 3
	}

	build := relation.NewBatch(n)
	probe := relation.NewBatch(n)
	for i := 0; i < n; i++ {
		v := int64(i)
		build.Append(v, v, uint64(i)) // build side keyed on Unique2
		probe.Append(v, v, uint64(i)) // probe side keyed on Unique1
	}
	spec := hashjoin.Spec{BuildIsLower: true}

	var hashNs, probeNs float64
	{
		var scratch relation.Batch
		hashTimes := make([]float64, 0, rounds)
		probeTimes := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			j := hashjoin.NewPipeliningSized(spec, n)
			start := time.Now() // the timed build creates its table, as a real one does
			j.FromBuildSideBatchInto(&scratch, build)
			j.CloseBuildSide()
			hashTimes = append(hashTimes, float64(time.Since(start)))
			scratch.Reset()
			start = time.Now()
			j.FromProbeSideBatchInto(&scratch, probe)
			probeTimes = append(probeTimes, float64(time.Since(start)))
			if scratch.Len() != n {
				return Calibration{}, fmt.Errorf("costmodel: calibration probe produced %d results, want %d", scratch.Len(), n)
			}
			j.Release()
		}
		hashNs = median(hashTimes) / float64(n)
		probeNs = median(probeTimes) / float64(n)
	}

	// Transport at two batch sizes: T(bt) ≈ n·perTuple + (n/bt)·perBatch.
	small, large := 64, 512
	tSmall, err := transportRun(build, small, rounds)
	if err != nil {
		return Calibration{}, err
	}
	tLarge, err := transportRun(build, large, rounds)
	if err != nil {
		return Calibration{}, err
	}
	batches := func(bt int) float64 { return math.Ceil(float64(n) / float64(bt)) }
	perBatch := (tSmall - tLarge) / (batches(small) - batches(large))
	perTuple := (tSmall - batches(small)*perBatch) / float64(n)
	if perBatch < 1 {
		perBatch = 1 // two noisy samples can invert; clamp, don't fail
	}
	if perTuple < 0.1 {
		perTuple = 0.1
	}

	startupNs := startupRun(rounds)

	// Least-squares fit of one per-unit wall cost u over the per-tuple
	// observations (measured_i ≈ units_i · u): u = Σ m·w / Σ w².
	type obs struct{ measured, units float64 }
	observations := []obs{
		{hashNs, UnitsHash},
		{probeNs, UnitsProbe + UnitsResult},
		{perTuple, UnitsNetReceive},
	}
	var num, den float64
	for _, o := range observations {
		num += o.measured * o.units
		den += o.units * o.units
	}
	c := Calibration{
		HashNanos:      hashNs,
		ProbeNanos:     probeNs,
		TransportNanos: perTuple,
		BatchNanos:     perBatch,
		StartupNanos:   startupNs,
		UnitNanos:      num / den,
	}
	for name, v := range map[string]float64{
		"HashNanos": c.HashNanos, "ProbeNanos": c.ProbeNanos,
		"TransportNanos": c.TransportNanos, "BatchNanos": c.BatchNanos,
		"StartupNanos": c.StartupNanos, "UnitNanos": c.UnitNanos,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return Calibration{}, fmt.Errorf("costmodel: calibration produced non-positive %s = %v", name, v)
		}
	}
	return c, nil
}

// transportRun measures moving src's tuples through pooled batches of bt
// tuples over a buffered channel — a producer goroutine chunking into the
// pool's batches, the caller draining and returning them — and reports the
// median total wall time in nanoseconds.
func transportRun(src *relation.Batch, bt, rounds int) (float64, error) {
	pool := relation.NewBatchPool(bt, 16)
	times := make([]float64, 0, rounds)
	n := src.Len()
	for r := 0; r < rounds; r++ {
		ch := make(chan *relation.Batch, 4)
		start := time.Now()
		go func() {
			for lo := 0; lo < n; {
				b := pool.Get()
				hi := lo + bt
				if hi > n {
					hi = n
				}
				b.AppendRange(src, lo, hi)
				lo = hi
				ch <- b
			}
			close(ch)
		}()
		got := 0
		for b := range ch {
			got += b.Len()
			pool.Put(b)
		}
		times = append(times, float64(time.Since(start)))
		if got != n {
			return 0, fmt.Errorf("costmodel: calibration transport moved %d tuples, want %d", got, n)
		}
	}
	return median(times), nil
}

// startupRun measures launching one goroutine (spawn to first instruction),
// the wall analogue of the scheduler's per-process Startup cost.
func startupRun(rounds int) float64 {
	const g = 512
	times := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(g)
		start := time.Now()
		for i := 0; i < g; i++ {
			go wg.Done()
		}
		wg.Wait()
		times = append(times, float64(time.Since(start))/g)
	}
	return median(times)
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
