// End-to-end audits of the distributed runtime: multiset equivalence with
// the sequential reference across all four strategies and worker counts,
// resource-leak checks (goroutines, file descriptors, child processes) on
// completion and cancellation, crash recovery when a worker dies mid-run,
// and runs that stray and silent connections to the coordinator's port
// must not disturb. The tests live in the external package so they can
// drive the runtime through core.Exec exactly as callers do.
package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/core"
	"multijoin/internal/dist"
	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wire"
	"multijoin/internal/wisconsin"
)

// testQuery builds a chain-database query of the given size.
func testQuery(t testing.TB, relations, card, procs int, kind strategy.Kind, shape jointree.Shape) core.Query {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(shape, relations)
	if err != nil {
		t.Fatal(err)
	}
	return core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs}
}

// pidRecorder collects the (node, pid) pairs of every worker the runtime
// spawns while installed.
type pidRecorder struct {
	mu   sync.Mutex
	pids map[int]int // node -> pid
}

func recordSpawns(t *testing.T) *pidRecorder {
	t.Helper()
	r := &pidRecorder{pids: make(map[int]int)}
	dist.SetWorkerSpawnHook(func(node, pid int) {
		r.mu.Lock()
		r.pids[node] = pid
		r.mu.Unlock()
	})
	t.Cleanup(func() { dist.SetWorkerSpawnHook(nil) })
	return r
}

func (r *pidRecorder) pid(node int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pid, ok := r.pids[node]
	return pid, ok
}

func (r *pidRecorder) all() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.pids))
	for _, pid := range r.pids {
		out = append(out, pid)
	}
	return out
}

// assertChildrenReaped fails if any recorded worker pid is still alive
// (signal 0 probes existence; ESRCH means fully reaped).
func assertChildrenReaped(t *testing.T, r *pidRecorder) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range r.all() {
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				t.Errorf("worker pid %d still alive after run ended", pid)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestDistEquivalenceAllStrategies is the acceptance criterion: every
// strategy produces the reference multiset on the dist runtime with 1, 2
// and 4 loopback workers, and each run leaves no goroutines, descriptors or
// child processes behind.
func TestDistEquivalenceAllStrategies(t *testing.T) {
	q := testQuery(t, 5, 2000, 8, strategy.SP, jointree.WideBushy)
	for _, workers := range []int{1, 2, 4} {
		for _, kind := range strategy.Kinds {
			t.Run(fmt.Sprintf("w%d/%v", workers, kind), func(t *testing.T) {
				q := q
				q.Strategy = kind
				rec := recordSpawns(t)
				beforeG := runtime.NumGoroutine()
				beforeFD := atrest.OpenFDs()
				res, err := core.Exec(context.Background(), q,
					core.WithRuntime("dist"), core.WithWorkers(workers), core.WithVerify())
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Workers != workers {
					t.Errorf("Stats.Workers = %d, want %d", res.Stats.Workers, workers)
				}
				if res.Stats.BytesOnWire <= 0 {
					t.Errorf("Stats.BytesOnWire = %d, want > 0 (result must cross the wire)", res.Stats.BytesOnWire)
				}
				if res.Stats.ResultTuples != res.Result.Card() {
					t.Errorf("Stats.ResultTuples = %d, result card = %d", res.Stats.ResultTuples, res.Result.Card())
				}
				assertChildrenReaped(t, rec)
				if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
					t.Errorf("goroutine leak: %v", err)
				}
				if err := atrest.FDs(beforeFD+2, 5*time.Second); err != nil {
					t.Errorf("fd leak: %v", err)
				}
			})
		}
	}
}

// TestDistStatsMatchParallel pins the shared-nothing bookkeeping: summed
// over all nodes, the dist runtime moves exactly the tuples the
// single-process goroutine runtime moves for the same plan and batch size —
// the transport changes, the dataflow does not.
func TestDistStatsMatchParallel(t *testing.T) {
	q := testQuery(t, 5, 2000, 8, strategy.FP, jointree.WideBushy)
	ref, err := core.Exec(context.Background(), q, core.WithRuntime("parallel"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Exec(context.Background(), q,
		core.WithRuntime("dist"), core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TuplesMovedRemote != ref.Stats.TuplesMovedRemote {
		t.Errorf("TuplesMovedRemote = %d, parallel runtime moved %d", res.Stats.TuplesMovedRemote, ref.Stats.TuplesMovedRemote)
	}
	if res.Stats.TuplesLocal != ref.Stats.TuplesLocal {
		t.Errorf("TuplesLocal = %d, parallel runtime delivered %d", res.Stats.TuplesLocal, ref.Stats.TuplesLocal)
	}
	if res.Stats.ResultTuples != ref.Stats.ResultTuples {
		t.Errorf("ResultTuples = %d, parallel runtime produced %d", res.Stats.ResultTuples, ref.Stats.ResultTuples)
	}
	if res.Stats.Processes != ref.Stats.Processes || res.Stats.Streams != ref.Stats.Streams {
		t.Errorf("structural counters differ: dist %d procs/%d streams, parallel %d/%d",
			res.Stats.Processes, res.Stats.Streams, ref.Stats.Processes, ref.Stats.Streams)
	}
}

// TestDistCancelMidQuery cancels a distributed run partway through and
// asserts a prompt context.Canceled return with every resource — local
// goroutines, sockets, and the spawned children — released.
func TestDistCancelMidQuery(t *testing.T) {
	q := testQuery(t, 10, 8000, 16, strategy.FP, jointree.WideBushy)
	for _, delay := range []time.Duration{5 * time.Millisecond, 150 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			rec := recordSpawns(t)
			beforeG := runtime.NumGoroutine()
			beforeFD := atrest.OpenFDs()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := core.Exec(ctx, q, core.WithRuntime("dist"), core.WithWorkers(2))
				errc <- err
			}()
			time.Sleep(delay)
			cancel()
			select {
			case err := <-errc:
				// nil is possible only when the run beats a late cancel.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("Exec after cancel returned %v, want context.Canceled", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Exec did not return within 20s of cancellation")
			}
			assertChildrenReaped(t, rec)
			if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
				t.Errorf("goroutine leak after cancel: %v", err)
			}
			if err := atrest.FDs(beforeFD+2, 5*time.Second); err != nil {
				t.Errorf("fd leak after cancel: %v", err)
			}
		})
	}
}

// TestDistWorkerCrash kills one worker process and asserts the coordinator
// returns a diagnostic error (not a hang) and releases everything: the
// remaining children are cancelled and reaped, no goroutines or sockets
// leak.
func TestDistWorkerCrash(t *testing.T) {
	q := testQuery(t, 10, 8000, 16, strategy.FP, jointree.WideBushy)
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"at-spawn", 0},
		{"mid-run", 250 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := recordSpawns(t)
			beforeG := runtime.NumGoroutine()
			beforeFD := atrest.OpenFDs()
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				deadline := time.Now().Add(10 * time.Second)
				for {
					if pid, ok := rec.pid(1); ok {
						if tc.delay > 0 {
							time.Sleep(tc.delay)
						}
						syscall.Kill(pid, syscall.SIGKILL)
						return
					}
					if time.Now().After(deadline) {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			errc := make(chan error, 1)
			go func() {
				_, err := core.Exec(context.Background(), q, core.WithRuntime("dist"), core.WithWorkers(2))
				errc <- err
			}()
			var err error
			select {
			case err = <-errc:
			case <-time.After(30 * time.Second):
				t.Fatal("coordinator hung after worker was killed")
			}
			<-killed
			if err == nil {
				// Only a very late kill can lose the race against a
				// completed run; the at-spawn variant must always error.
				if tc.delay == 0 {
					t.Fatal("coordinator returned success though worker 1 was killed at spawn")
				}
				t.Logf("run completed before the delayed kill landed")
			} else if !strings.Contains(err.Error(), "worker") {
				t.Errorf("error does not identify the dead worker: %v", err)
			}
			assertChildrenReaped(t, rec)
			if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
				t.Errorf("goroutine leak after crash: %v", err)
			}
			if err := atrest.FDs(beforeFD+2, 5*time.Second); err != nil {
				t.Errorf("fd leak after crash: %v", err)
			}
		})
	}
}

// freeAddr returns a loopback address whose port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// runBeside runs a two-worker query with the coordinator on a fixed
// address while hostile dials that address until stop closes. The run must
// return the reference result well inside dist.HelloTimeout and, once
// hostile is done, leave no goroutines, descriptors or child processes
// behind.
func runBeside(t *testing.T, hostile func(addr string, stop <-chan struct{})) {
	q := testQuery(t, 5, 2000, 8, strategy.FP, jointree.WideBushy)
	plan, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	rec := recordSpawns(t)
	beforeG := runtime.NumGoroutine()
	beforeFD := atrest.OpenFDs()
	addr := freeAddr(t)
	stop, hostileDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hostileDone)
		hostile(addr, stop)
	}()
	got := relation.New("result", q.DB.Relation(0).TupleBytes)
	start := time.Now()
	_, err = dist.Run(context.Background(), plan, q.DB.Relation, dist.Config{Workers: 2, ListenAddr: addr}, &operator.Gather{Rel: got})
	elapsed := time.Since(start)
	close(stop)
	<-hostileDone
	if err != nil {
		t.Fatalf("run beside hostile connections: %v", err)
	}
	if elapsed > dist.HelloTimeout/4 {
		t.Errorf("run took %v beside hostile connections, want well under the %v HELLO timeout", elapsed, dist.HelloTimeout)
	}
	if diff := relation.DiffMultiset(core.Reference(q.DB, q.Tree), got); diff != "" {
		t.Errorf("result differs from the reference: %s", diff)
	}
	assertChildrenReaped(t, rec)
	if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
		t.Errorf("goroutine leak: %v", err)
	}
	if err := atrest.FDs(beforeFD+2, 5*time.Second); err != nil {
		t.Errorf("fd leak: %v", err)
	}
}

// dialUntil dials addr until it answers or stop closes (nil then).
func dialUntil(addr string, stop <-chan struct{}) net.Conn {
	for {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			return c
		}
		select {
		case <-stop:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

// TestDistStrayConnections runs a query while another client keeps
// connecting to the coordinator's port, writing a frame that is no HELLO
// and hanging up: each stray connection is dropped, and the run goes on.
func TestDistStrayConnections(t *testing.T) {
	strays := 0
	runBeside(t, func(addr string, stop <-chan struct{}) {
		for {
			c := dialUntil(addr, stop)
			if c == nil {
				return
			}
			wire.NewConn(c, 1<<10).WriteFrame(wire.KindData, nil)
			c.Close()
			strays++
		}
	})
	if strays == 0 {
		t.Error("no stray connection reached the coordinator")
	}
}

// TestDistSilentConnection runs a query while one client holds a connection
// to the coordinator's port open through the whole run and never speaks:
// its HELLO wait holds up no other connection, and the run's end closes it.
func TestDistSilentConnection(t *testing.T) {
	connected := false
	runBeside(t, func(addr string, stop <-chan struct{}) {
		if c := dialUntil(addr, stop); c != nil {
			connected = true
			<-stop
			c.Close()
		}
	})
	if !connected {
		t.Error("the silent client never reached the coordinator")
	}
}
