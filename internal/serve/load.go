package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// LoadConfig parameterizes one load-generation step against a server.
type LoadConfig struct {
	Addr     string        // server address
	Conns    int           // concurrent client connections (0 means 8)
	Duration time.Duration // offered-load window (0 means 2s)
	// OfferedQPS > 0 runs an open loop: arrivals at this aggregate rate
	// with exponential inter-arrival times, issued regardless of
	// completions (queueing shows up as latency). Zero runs a closed loop:
	// each connection issues its next query the moment the previous one
	// terminates.
	OfferedQPS float64
	// CancelFrac in [0,1] is the fraction of queries cancelled after their
	// first result batch — the abort-mid-stream path.
	CancelFrac float64
	Specs      []QuerySpec // query mix, cycled through per arrival (empty means a default mix)
	Window     int         // per-stream credit window (0 means DefaultWindow)
	Seed       int64
}

// LoadResult aggregates one step's outcome.
type LoadResult struct {
	Offered      float64 // configured open-loop rate; 0 on closed loops
	Completed    int64   // queries that reached DONE
	Cancelled    int64   // queries we cancelled that terminated
	Errors       int64   // queries that failed for any other reason
	Abandoned    int64   // open-loop queries still in flight at the deadline
	Elapsed      time.Duration
	Achieved     float64 // terminated queries (completed+cancelled) per second
	P50          time.Duration
	P95          time.Duration
	P99          time.Duration
	AvgQueueWait time.Duration
	SpilledBytes int64 // sum of per-query spill reported in DONE
	Rows         int64 // tuples streamed to clients
}

// DefaultMix is the load generator's default query mix: the four
// strategies crossed with the in-memory parallel runtime and the spilling
// out-of-core runtime, on the paper's wide-bushy shape.
func DefaultMix() []QuerySpec {
	var specs []QuerySpec
	for _, st := range []string{"SP", "SE", "RD", "FP"} {
		for _, rt := range []string{"parallel", "spill"} {
			specs = append(specs, QuerySpec{Shape: "wide-bushy", Strategy: st, Runtime: rt})
		}
	}
	return specs
}

// loadStats collects per-query outcomes under one mutex.
type loadStats struct {
	mu        sync.Mutex
	latencies []time.Duration
	waits     []time.Duration
	completed int64
	cancelled int64
	errors    int64
	abandoned int64
	spilled   int64
	rows      int64
}

// count adds n to one of the counters.
func (ls *loadStats) count(c *int64, n int64) {
	ls.mu.Lock()
	*c += n
	ls.mu.Unlock()
}

func (ls *loadStats) done(lat time.Duration, d *Done, cancelled bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.latencies = append(ls.latencies, lat)
	if d != nil {
		ls.waits = append(ls.waits, d.QueueWait)
		ls.spilled += d.SpilledBytes
	}
	if cancelled {
		ls.cancelled++
	} else {
		ls.completed++
	}
}

// RunLoad drives one offered-load step and reports its aggregate result.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = DefaultMix()
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	clients := make([]*Client, cfg.Conns)
	for i := range clients {
		cl, err := DialWindow(cfg.Addr, cfg.Window)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("serve: load dial %d: %w", i, err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	stats := &loadStats{}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			if cfg.OfferedQPS > 0 {
				openLoop(cl, cfg, rng, deadline, stats)
			} else {
				closedLoop(cl, cfg, rng, deadline, stats)
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{
		Offered:   cfg.OfferedQPS,
		Completed: stats.completed, Cancelled: stats.cancelled,
		Errors: stats.errors, Abandoned: stats.abandoned,
		Elapsed:      elapsed,
		SpilledBytes: stats.spilled, Rows: stats.rows,
	}
	terminated := stats.completed + stats.cancelled
	if elapsed > 0 {
		res.Achieved = float64(terminated) / elapsed.Seconds()
	}
	res.P50 = percentile(stats.latencies, 0.50)
	res.P95 = percentile(stats.latencies, 0.95)
	res.P99 = percentile(stats.latencies, 0.99)
	var sum time.Duration
	for _, w := range stats.waits {
		sum += w
	}
	if len(stats.waits) > 0 {
		res.AvgQueueWait = sum / time.Duration(len(stats.waits))
	}
	return res, nil
}

// runOne issues one query and consumes its stream, cancelling it after its
// first batch when cancelMe is set. It records latency (submit to terminal
// event) and the outcome: a failure after abandonAt (zero: never) counts as
// abandoned, not as an error. inflight, when set, holds the stream while it
// runs, so that the open loop can cancel the stragglers.
func runOne(cl *Client, spec QuerySpec, cancelMe bool, abandonAt time.Time, inflight *sync.Map, stats *loadStats) {
	t0 := time.Now()
	st, err := cl.Submit(spec)
	if err != nil {
		stats.count(&stats.errors, 1)
		return
	}
	if inflight != nil {
		inflight.Store(st, struct{}{})
		defer inflight.Delete(st)
	}
	cancelled := false
	for {
		tuples, done, err := st.Recv()
		switch {
		case err != nil && cancelled:
			// The server's cancellation ERROR is the expected terminal
			// event of a cancelled stream.
			stats.done(time.Since(t0), nil, true)
		case err != nil && !abandonAt.IsZero() && time.Now().After(abandonAt):
			stats.count(&stats.abandoned, 1)
		case err != nil:
			stats.count(&stats.errors, 1)
		case done != nil:
			stats.done(time.Since(t0), done, false)
		default:
			stats.count(&stats.rows, int64(len(tuples)))
			if cancelMe && !cancelled {
				cancelled = true
				st.Cancel()
			}
			continue
		}
		return
	}
}

// closedLoop issues queries back to back until the deadline.
func closedLoop(cl *Client, cfg LoadConfig, rng *rand.Rand, deadline time.Time, stats *loadStats) {
	for time.Now().Before(deadline) {
		spec := cfg.Specs[rng.Intn(len(cfg.Specs))]
		runOne(cl, spec, rng.Float64() < cfg.CancelFrac, time.Time{}, nil, stats)
	}
}

// openLoop issues queries at this connection's share of the offered rate
// with exponential inter-arrival times, regardless of completions: the
// generator does not wait, so saturation shows up as queue wait and rising
// latency rather than a throughput plateau alone. Arrivals still in flight
// at the deadline are cancelled and counted as abandoned. Every die is cast
// here, before its arrival's goroutine starts: rng is not safe for
// concurrent use.
func openLoop(cl *Client, cfg LoadConfig, rng *rand.Rand, deadline time.Time, stats *loadStats) {
	rate := cfg.OfferedQPS / float64(cfg.Conns)
	var qwg sync.WaitGroup
	var inflight sync.Map // *Stream -> struct{}
	for time.Now().Before(deadline) {
		wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if d := time.Until(deadline); wait > d {
			time.Sleep(d)
			break
		}
		time.Sleep(wait)
		spec := cfg.Specs[rng.Intn(len(cfg.Specs))]
		cancelMe := rng.Float64() < cfg.CancelFrac
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			runOne(cl, spec, cancelMe, deadline, &inflight, stats)
		}()
	}
	// Grace: let the tail drain briefly, then cancel the stragglers so the
	// step ends instead of waiting out a saturated queue.
	graceDone := make(chan struct{})
	go func() { qwg.Wait(); close(graceDone) }()
	select {
	case <-graceDone:
	case <-time.After(cfg.Duration):
		inflight.Range(func(k, _ any) bool {
			k.(*Stream).Cancel()
			return true
		})
		<-graceDone
	}
}

// percentile returns the nearest-rank percentile of the latencies.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := make([]time.Duration, len(ds))
	copy(s, ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
