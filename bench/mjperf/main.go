// Command mjperf is the repository's performance benchmark: five
// closed-loop workloads, eight end-to-end metrics per workload, and a
// traced run that peels the layers apart. See bench/README.md.
//
//	mjperf -workload exec_rd -seed 1995 -seconds 20            end-to-end metrics
//	mjperf -workload exec_rd -seed 1995 -seconds 20 -trace 1   per-layer metrics
//	mjperf -aa                                                 repeatability self-check
//
// One process runs one workload (peak RSS is a per-process figure). The
// last line of standard output is the result as one JSON object; the
// lines before it are for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"multijoin"
)

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, and the window runs on the last instance.
const setupRepeats = 3

// tracedShare is the part of a traced run's window that records spans and
// peels; the part before it runs plain operations in the same process, and
// the two medians give the tracing overhead.
const tracedShare = 0.7

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1995, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "length of the timed window")
		traced   = flag.Int("trace", 0, "1 records spans and layer probes and reports the per-layer metrics instead")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
		aa       = flag.Bool("aa", false, "run every workload in two interleaved sets and compare their medians")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace takes 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fatalf("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", "))
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(def, *seed, window, *traceOut)
	} else {
		res, err = runPlain(def, *seed, window, setupRepeats)
	}
	if err != nil {
		fatalf("%s: %v", def.name, err)
	}
	fmt.Println(res.line())
	if !res.Correct {
		// The result line is out; a wrong answer is still a failed run for
		// anyone calling the command by hand.
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mjperf: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func clientsOf(def workloadDef) int { return min(def.clients, runtime.GOMAXPROCS(0)) }

// setUp builds one instance and runs the fixed warm-up on it.
func setUp(def workloadDef, seed int64, clients int, traced bool) (instance, error) {
	inst, err := def.setup(seed, clients, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w := closedLoopN(clients, def.warmup, inst.op)
	if w.failed > 0 {
		inst.close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed, first: %w", w.failed, w.attempted, w.firstErr)
	}
	return inst, nil
}

// record is the run's hygiene line: everything needed to read the numbers
// on another machine or to repeat the run.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	WarmupOps  int     `json:"warmup_ops_per_client"`
	Setups     int     `json:"setups"`
	Attempted  int64   `json:"ops_attempted"`
	Failed     int64   `json:"ops_failed"`
	Samples    int     `json:"latency_samples"`
	P90Beyond  int     `json:"samples_beyond_p90"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	// RefKernelMS is the window's median reference-kernel time and
	// RefDriftPct its readings' quartile spread over that median; more than
	// 10 marks a window the host disturbed. SetupFactor and ClockFactor are
	// what the set-up time and the window's times were multiplied by, and
	// WallClock holds the readings before that (untraced runs only).
	RefKernelMS float64            `json:"ref_kernel_ms"`
	RefDriftPct float64            `json:"ref_drift_pct"`
	Disturbed   bool               `json:"disturbed"`
	SetupFactor float64            `json:"setup_factor,omitempty"`
	ClockFactor float64            `json:"clock_factor,omitempty"`
	WallClock   map[string]float64 `json:"wall_clock,omitempty"`
	FirstError  string             `json:"first_error,omitempty"`
}

// newRecord describes a run whose window took the given reference-kernel
// readings.
func newRecord(def workloadDef, seed int64, traced bool, setups int, w *window, readings []float64) record {
	// SetGCPercent is the only way to read the setting; put it straight back.
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	r := record{
		Workload: def.name, Seed: seed, Traced: traced,
		WindowS: w.elapsed.Seconds(), Clients: clientsOf(def), WarmupOps: def.warmup, Setups: setups,
		Attempted: w.attempted, Failed: w.failed,
		Samples: len(w.latencies), P90Beyond: len(w.latencies) / 10,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: fmt.Sprint(gogc), GoVersion: runtime.Version(),
		RefKernelMS: median(readings) / 1e6, RefDriftPct: 100 * spread(readings),
	}
	r.Disturbed = r.RefDriftPct > 10
	if w.firstErr != nil {
		r.FirstError = w.firstErr.Error()
	}
	return r
}

func printRecord(r record) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain fields always marshal
	}
	fmt.Printf("%s%s\n", recordPrefix, b)
}

// recordPrefix starts the line of standard output that carries the record.
const recordPrefix = "run "

// printMetrics lists every metric by name with its value, unit and, for an
// end-to-end metric, the bound by which it may worsen. raw, when given,
// holds the wall-clock readings behind the values that were put on the
// reference clock.
func printMetrics(defs []metricDef, got, raw map[string]float64) {
	for _, d := range defs {
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, may worsen %.0f%%)", d.Better, 100*d.Bound)
		}
		if r, ok := raw[d.Name]; ok {
			note += fmt.Sprintf("  wall clock %.4f", r)
		}
		fmt.Printf("  %-38s %14.4f %-6s%s\n", d.Name, got[d.Name], d.Unit, note)
	}
}

// endToEndOf turns one untraced window into the end-to-end metrics, all
// but setup_s. The four that are times of the window are read on the
// reference clock (multiplied by f); raw returns their wall-clock
// readings.
func endToEndOf(w *window, f float64, rssMiB float64) (got, raw map[string]float64) {
	lat := sortedCopy(durationsMS(w.latencies))
	raw = map[string]float64{
		"op_latency_p50_ms": percentile(lat, 50),
		"op_latency_p90_ms": percentile(lat, 90),
		"throughput_ops_s":  float64(w.ops()) / w.elapsed.Seconds(),
		"cpu_ms_per_op":     w.perOp(ms(w.used.cpu)),
	}
	got = map[string]float64{
		"op_latency_p50_ms": raw["op_latency_p50_ms"] * f,
		"op_latency_p90_ms": raw["op_latency_p90_ms"] * f,
		"throughput_ops_s":  raw["throughput_ops_s"] / f,
		"cpu_ms_per_op":     raw["cpu_ms_per_op"] * f,
		"allocs_per_op":     w.perOp(float64(w.used.mallocs)),
		"alloc_kb_per_op":   w.perOp(float64(w.used.bytes) / 1024),
		"peak_rss_mb":       rssMiB,
	}
	return got, raw
}

func runPlain(def workloadDef, seed int64, d time.Duration, repeats int) (result, error) {
	clients := clientsOf(def)
	// The reference clock's buffer is resident from here on, so it can be
	// taken off the peak RSS exactly.
	clk, err := newRefClock()
	if err != nil {
		return result{}, err
	}
	defer clk.close()
	var inst instance
	setups := make([]float64, repeats)
	for i := range setups {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // the next set-up starts from the same heap as the first
		}
		t0 := time.Now()
		var err error
		inst, err = setUp(def, seed, clients, false)
		if err != nil {
			return result{}, err
		}
		setups[i] = time.Since(t0).Seconds()
		clk.read() // like the window's readings, straight after operations
	}
	defer inst.close()
	setupReadings := len(clk.ns)

	runtime.GC()
	w := closedLoop(clients, d, clk, inst.op)
	finishErr := inst.finish()
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	setupF, windowF := factor(clk.ns[:setupReadings]), factor(clk.ns[setupReadings:])
	got, raw := endToEndOf(w, windowF, rss-refBufMiB)
	raw["setup_s"] = median(setups)
	got["setup_s"] = raw["setup_s"] * setupF

	rec := newRecord(def, seed, false, repeats, w, clk.ns[setupReadings:])
	rec.SetupFactor, rec.ClockFactor, rec.WallClock = setupF, windowF, raw
	if finishErr != nil {
		rec.FirstError = "after the window: " + finishErr.Error()
	}
	printRecord(rec)
	fmt.Printf("set-ups %v s, multiplied by %.4f; %d reference-kernel readings after the window's segments, median %.3f ms: its times are multiplied by %.4f\n",
		setups, setupF, len(clk.ns)-setupReadings, rec.RefKernelMS, windowF)
	printMetrics(endToEnd, got, raw)
	return newResult(endToEnd, got, max(w.attempted, 1), w.failed, w.failed == 0 && w.ops() > 0 && finishErr == nil)
}

func runTraced(def workloadDef, seed int64, d time.Duration, traceOut string) (result, error) {
	clients := clientsOf(def)
	inst, err := setUp(def, seed, clients, true)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	si := inst.info()

	got := make(map[string]float64)
	for _, m := range perLayer {
		got[m.Name] = 0 // a layer this workload never enters reports 0
	}
	got["wisconsin.generate_ms"] = si.generateMS
	got["ivm.create_ms"] = si.createMS
	maps.Copy(got, planProbes(si))
	maps.Copy(got, kernelProbes(sizesOf(si.plans[0], si.card), seed))
	cal, err := multijoin.Calibrate(multijoin.CalibrateOptions{})
	if err != nil {
		return result{}, fmt.Errorf("calibrate: %w", err)
	}
	got["costmodel.unit_nanos"] = cal.UnitNanos

	var hits0, misses0 int64
	if si.engine != nil {
		hits0, misses0 = si.engine.PlanCacheStats()
	}
	clk, err := newRefClock()
	if err != nil {
		return result{}, err
	}
	defer clk.close()

	// Plain part, then traced part, back to back in one process.
	runtime.GC()
	plain := closedLoop(clients, time.Duration(float64(d)*(1-tracedShare)), clk, inst.op)
	log := newTraceLog()
	rec := newLayerRec()
	var nextOp atomic.Int64
	origin := time.Now()
	tw := closedLoop(clients, time.Duration(float64(d)*tracedShare), clk, func(client int) (time.Duration, error) {
		t := &opTrace{op: nextOp.Add(1), client: client, origin: origin}
		if err := inst.tracedOp(client, t, rec); err != nil {
			return 0, err
		}
		log.commit(t)
		return t.spans[0].dur(), nil
	})
	if si.engine != nil {
		hits, misses := si.engine.PlanCacheStats()
		if n := (hits - hits0) + (misses - misses0); n > 0 {
			got["core.plan_cache_hit_ratio"] = float64(hits-hits0) / float64(n)
		}
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	got["process.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	finishErr := inst.finish()

	// Process-wide counters come from the plain part, where one operation
	// is one operation.
	got["process.gc_cycles_per_op"] = plain.perOp(float64(plain.used.gcCycles))
	got["process.gc_pause_ms_total"] = ms(plain.used.gcPause + tw.used.gcPause)
	plainLat := sortedCopy(durationsMS(plain.latencies))
	tail := tailPercentile(len(plainLat))
	got["client.latency_tail_pct"] = tail
	got["client.latency_tail_ms"] = percentile(plainLat, tail)
	got["host.ref_kernel_ns"] = median(clk.ns)
	got["host.ref_drift_pct"] = 100 * spread(clk.ns)
	plainP50 := percentile(plainLat, 50)
	rootP50 := rec.median("lat.root_ms")
	if plainP50 > 0 {
		got["trace.overhead_pct"] = 100 * (rootP50 - plainP50) / plainP50
	}
	got["trace.unresolved_layers"] = float64(log.unresolvedCount())
	maps.Copy(got, layerMetrics(rec, got, plain))

	w := &window{}
	w.add(plain)
	w.add(tw)
	r := newRecord(def, seed, true, 1, w, clk.ns)
	if finishErr != nil {
		r.FirstError = "after the window: " + finishErr.Error()
	}
	printRecord(r)
	fmt.Printf("plain part %d ops, traced part %d ops, %d spans\n", plain.ops(), tw.ops(), len(log.spans))
	printSpanTable(log)
	printMetrics(perLayer, got, nil)
	if traceOut != "" {
		if err := log.writeTo(traceOut); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	return newResult(perLayer, got, max(w.attempted, 1), w.failed, w.failed == 0 && plain.ops() > 0 && tw.ops() > 0 && finishErr == nil)
}

// printSpanTable prints the peel: per span name, the median duration and
// the median self time of one operation, or "unresolved" where the self
// time is below what the peel can tell.
func printSpanTable(l *traceLog) {
	names := make([]string, 0, len(l.durByName))
	for name := range l.durByName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return l.medianDur(names[i]) > l.medianDur(names[j]) })
	fmt.Printf("  %-24s %12s %12s\n", "span (per op, median)", "dur ms", "self ms")
	for _, name := range names {
		self := fmt.Sprintf("%12.4f", l.medianSelf(name))
		if l.unresolved(name) {
			self = fmt.Sprintf("%12s", "unresolved")
		}
		fmt.Printf("  %-24s %12.4f %s\n", name, l.medianDur(name), self)
	}
}

// layerMetrics derives the per-layer metrics that come from the traced
// operations' own observations. probes holds the kernel figures already
// measured; plain is the untraced part of the window.
func layerMetrics(rec *layerRec, probes map[string]float64, plain *window) map[string]float64 {
	out := make(map[string]float64)
	has := func(key string) bool { return len(rec.vals[key]) > 0 }
	runtimeMS := rec.median("runtime_ms")
	moved := rec.median("tuples_moved")

	if has("runtime_ms") {
		out["core.self_us_per_op"] = rec.median("core.self_us")
		out["core.queue_wait_us_p50"] = rec.median("core.queue_wait_us")
	}
	if has("sim.events") {
		events := rec.median("sim.events")
		out["sim.events_per_op"] = events
		out["sim.ns_per_event"] = 1e6 * runtimeMS / events
		for _, k := range []string{"SP", "SE", "RD", "FP"} {
			out["sim.virtual_resp_s."+k] = rec.median("sim.virtual_resp_s." + k)
		}
		out["engine.startup_virtual_s"] = rec.median("engine.startup_virtual_s")
		out["engine.handshake_virtual_s"] = rec.median("engine.handshake_virtual_s")
	} else if has("runtime_ms") {
		batches := rec.median("batches")
		out["core.est_over_actual"] = rec.median("core.est_over_actual")
		out["parallel.wall_ms_per_op"] = runtimeMS
		out["parallel.tuples_moved_per_op"] = moved
		out["parallel.batches_per_op"] = batches
		out["parallel.goroutines_per_op"] = rec.median("goroutines")
		out["parallel.allocs_per_op"] = rec.median("runtime_mallocs")
		if moved > 0 {
			out["parallel.ns_per_tuple_moved"] = 1e6 * runtimeMS / moved
		}
		if batches > 0 {
			out["parallel.batch_fill"] = moved / (batches * transportBatch)
		}
	}
	if has("serve.self_ms") {
		out["serve.self_ms_per_op"] = rec.median("serve.self_ms")
		out["serve.first_batch_ms_p50"] = rec.median("serve.first_batch_ms")
		out["serve.data_frames_per_op"] = rec.median("serve.data_frames")
	}
	if has("ivm.apply_us") {
		out["serve.apply_self_us"] = rec.median("serve.apply_self_us")
		out["ivm.apply_us_per_round"] = rec.median("ivm.apply_us")
		out["ivm.changes_per_round"] = rec.median("ivm.changes")
		out["ivm.resident_mb"] = rec.median("ivm.resident_mb")
		if n := rec.median("ivm.delta_tuples"); n > 0 {
			out["ivm.ns_per_delta_tuple"] = 1000 * rec.median("ivm.apply_us") / n
		}
	}

	// Estimated share of the operation's CPU time spent in the hash-join
	// kernels: tuples delivered to join processes times the kernel's
	// stand-alone cost per tuple.
	cpuNS := 1e6 * plain.perOp(ms(plain.used.cpu))
	if cpuNS > 0 {
		switch {
		case has("ivm.apply_us"):
			// Every delta tuple crosses each join above its relation; half
			// are inserts (pipelining step), half deletes.
			perTuple := (probes["hashjoin.pipelining_ns_per_tuple"] + probes["hashjoin.delete_ns_per_tuple"]) / 2
			out["hashjoin.est_cpu_share"] = rec.median("ivm.delta_tuples") * (relations - 1) / 2 * perTuple / cpuNS
		case moved > 0:
			// A simple join builds with half its input and probes with the
			// other half; a pipelining join does both with every tuple.
			simple := (probes["hashjoin.build_ns_per_tuple"] + probes["hashjoin.probe_ns_per_tuple"]) / 2
			est := rec.median("join_tuples.simple")*simple + rec.median("join_tuples.pipelining")*probes["hashjoin.pipelining_ns_per_tuple"]
			out["hashjoin.est_cpu_share"] = est / cpuNS
		}
	}
	return out
}
