package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// counters is a reading of the process-wide meters the end-to-end metrics
// are differences of.
type counters struct {
	cpu      time.Duration // getrusage user+sys, load generator included
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// since returns what was consumed between the reading from and c.
func (c counters) since(from counters) counters {
	return counters{
		cpu:     c.cpu - from.cpu,
		mallocs: c.mallocs - from.mallocs, bytes: c.bytes - from.bytes,
		gcCycles: c.gcCycles - from.gcCycles, gcPause: c.gcPause - from.gcPause,
	}
}

// window is what one timed closed-loop window observed.
type window struct {
	elapsed   time.Duration
	latencies []time.Duration // successful ops only, all clients
	attempted int64
	failed    int64
	firstErr  error
	used      counters // consumed while operations ran
}

func (w *window) ops() int64 { return w.attempted - w.failed }

// perOp divides a window total by the operations completed in it.
func (w *window) perOp(total float64) float64 {
	if n := w.ops(); n > 0 {
		return total / float64(n)
	}
	return 0
}

// add appends a later stretch of the same window.
func (w *window) add(seg *window) {
	w.elapsed += seg.elapsed
	w.latencies = append(w.latencies, seg.latencies...)
	w.attempted += seg.attempted
	w.failed += seg.failed
	if w.firstErr == nil {
		w.firstErr = seg.firstErr
	}
	w.used.cpu += seg.used.cpu
	w.used.mallocs += seg.used.mallocs
	w.used.bytes += seg.used.bytes
	w.used.gcCycles += seg.used.gcCycles
	w.used.gcPause += seg.used.gcPause
}

// closedLoop runs op from `clients` goroutines for d: each client issues
// its next operation only when the previous one returned. The window runs
// in segments of refPeriod; the operation in flight when a segment closes
// completes and counts, and after every segment, with every client
// stopped, clk takes a reading. Only the segments count towards elapsed
// and used.
func closedLoop(clients int, d time.Duration, clk *refClock, op func(client int) (time.Duration, error)) *window {
	w := &window{}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); clk.read() {
		end := time.Now().Add(refPeriod)
		if end.After(deadline) {
			end = deadline
		}
		w.add(runLoop(clients, func(int) bool { return !time.Now().Before(end) }, op))
	}
	return w
}

// closedLoopN is closedLoop with a fixed operation count per client in
// place of a duration and no clock readings: the warm-up.
func closedLoopN(clients, n int, op func(client int) (time.Duration, error)) *window {
	return runLoop(clients, func(done int) bool { return done >= n }, op)
}

// runLoop drives the clients until stop (given the client's own count of
// operations so far) says so, and returns when the last one has stopped.
// op returns the latency its client observed. An operation that returns an
// error is failed: it counts as attempted and its latency is dropped.
func runLoop(clients int, stop func(done int) bool, op func(client int) (time.Duration, error)) *window {
	w := &window{}
	type perClient struct {
		lat      []time.Duration
		failed   int64
		firstErr error
	}
	res := make([]perClient, clients)
	var wg sync.WaitGroup
	before, t0 := snapshot(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for done := 0; !stop(done); done++ {
				lat, err := op(c)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.lat = append(r.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	w.used = snapshot().since(before)
	for _, r := range res {
		w.latencies = append(w.latencies, r.lat...)
		w.attempted += int64(len(r.lat)) + r.failed
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
	}
	return w
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		var kb float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f kB", &kb); err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// heapObjectsAllocated reads the process's cumulative count of heap
// objects allocated without stopping the world, for use around a single
// call. With a second client running its allocations are counted too.
func heapObjectsAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
