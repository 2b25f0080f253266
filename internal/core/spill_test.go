package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// tinyBudget is small enough that every join operand overflows: each join
// process must spill at least one partition, so the out-of-core path is
// genuinely exercised rather than degenerating to the in-memory one.
const tinyBudget = 1 << 12

// scopeTempDir points TMPDIR at a fresh per-test directory so the temp-file
// audit sees only this test's spill runs: `go test ./...` runs packages in
// parallel, and other packages (the fuzz harness, the experiments tests)
// legitimately create mjspill-* dirs in the shared OS temp dir at the same
// time. os.MkdirTemp consults TMPDIR on every call, so the redirect takes
// effect without restarting anything.
func scopeTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return dir
}

// spillTempFiles counts mjspill temp dirs (and any partition files inside
// them) left in the scoped temp directory — the leak audit for the spill
// runtime, which promises to remove its per-run directory wholesale.
func spillTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "mjspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestRuntimeNamesIncludeSpill pins the acceptance criterion that "spill"
// is a registered runtime.
func TestRuntimeNamesIncludeSpill(t *testing.T) {
	names := RuntimeNames()
	for _, name := range names {
		if name == "spill" {
			return
		}
	}
	t.Fatalf("RuntimeNames() = %v does not include %q", names, "spill")
}

// TestSpillEquivalenceAllStrategies runs every strategy on the spill
// runtime under a budget that forces at least one spilled partition per
// join and asserts the checksum multiset matches the sequential reference,
// with no temp files, descriptors or goroutines left behind.
func TestSpillEquivalenceAllStrategies(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: 2000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	joins := db.NumRelations() - 1
	for _, kind := range strategy.Kinds {
		for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy, jointree.RightLinear} {
			t.Run(fmt.Sprintf("%v/%v", kind, shape), func(t *testing.T) {
				tmp := scopeTempDir(t)
				tree, err := jointree.BuildShape(shape, db.NumRelations())
				if err != nil {
					t.Fatal(err)
				}
				beforeG := runtime.NumGoroutine()
				beforeFD := atrest.OpenFDs()
				q := Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
				res, err := Exec(context.Background(), q,
					WithRuntime("spill"), WithMemoryBudget(tinyBudget))
				if err != nil {
					t.Fatal(err)
				}
				want := Reference(db, tree)
				if diff := relation.DiffMultiset(res.Result, want); diff != "" {
					t.Fatalf("spill result differs from reference: %s", diff)
				}
				if res.Stats.SpillPartitions < joins {
					t.Errorf("budget %d spilled only %d partitions for %d joins, want >= 1 per join",
						tinyBudget, res.Stats.SpillPartitions, joins)
				}
				if res.Stats.BytesSpilled == 0 {
					t.Error("BytesSpilled = 0 under a tiny budget")
				}
				if left := spillTempFiles(t, tmp); len(left) != 0 {
					t.Errorf("spill run left temp files: %v", left)
				}
				if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
					t.Errorf("goroutine leak: %v", err)
				}
				if err := atrest.FDs(beforeFD, 0); err != nil {
					t.Errorf("fd leak: %v", err)
				}
			})
		}
	}
}

// TestSpillHostedProcesses runs the forcing budget on an engine with fewer
// slots than the plans have processors, so every worker keeps one Grace join
// per process it hosts and drains them one after the other through the
// outbox they share: each strategy spills, matches the reference, and leaves
// the shared meter at zero and no temp files.
func TestSpillHostedProcesses(t *testing.T) {
	tmp := scopeTempDir(t)
	db := sessionDB(t, 6, 2000)
	eng, err := Open(db, WithEngineRuntime("spill"), WithEngineMemoryBudget(tinyBudget), WithEngineProcs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, kind := range strategy.Kinds {
		q := sessionQuery(t, db, jointree.LeftLinear, kind)
		q.Procs = 20 // FP gives each of the five joins four processors
		res, err := eng.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Stats.Goroutines >= res.Stats.Processes {
			t.Fatalf("%v: %d goroutines for %d processes: nothing is hosted", kind, res.Stats.Goroutines, res.Stats.Processes)
		}
		if diff := relation.DiffMultiset(res.Result, Reference(db, q.Tree)); diff != "" {
			t.Errorf("%v: %s", kind, diff)
		}
		if res.Stats.BytesSpilled == 0 {
			t.Errorf("%v: BytesSpilled = 0 under a tiny budget", kind)
		}
		if live := eng.MemoryLive(); live != 0 {
			t.Errorf("%v: %d live bytes on the shared meter", kind, live)
		}
		if left := spillTempFiles(t, tmp); len(left) != 0 {
			t.Errorf("%v: temp files left: %v", kind, left)
		}
	}
}

// TestSpillDefaultBudgetStaysInMemory asserts the paper-sized workloads run
// on the spill runtime without spilling under the default budget — the
// runtime only pays the out-of-core price when memory is actually short —
// while still producing the reference multiset.
func TestSpillDefaultBudgetStaysInMemory(t *testing.T) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 5, Cardinality: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 8}
	res, err := Exec(context.Background(), q, WithRuntime("spill"), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesSpilled != 0 || res.Stats.SpillPartitions != 0 {
		t.Errorf("default budget spilled %d bytes in %d partitions on a tiny workload",
			res.Stats.BytesSpilled, res.Stats.SpillPartitions)
	}
	if res.Runtime != "spill" {
		t.Errorf("Result.Runtime = %q, want spill", res.Runtime)
	}
}

// TestSpillCancelMidQuery cancels a budgeted run mid-flight and audits all
// three resources the spill path can leak: goroutines, temp files, and file
// descriptors.
func TestSpillCancelMidQuery(t *testing.T) {
	tmp := scopeTempDir(t)
	q := cancelQuery(t)
	for i := 0; i < 6; i++ {
		beforeG := runtime.NumGoroutine()
		beforeFD := atrest.OpenFDs()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := Exec(ctx, q, WithRuntime("spill"), WithMemoryBudget(tinyBudget))
			errc <- err
		}()
		// Vary the cancellation point to hit partitioning, spilling and
		// drain phases.
		time.Sleep(time.Duration(i*2) * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: spill Exec hung after cancel", i)
		}
		if left := spillTempFiles(t, tmp); len(left) != 0 {
			t.Fatalf("round %d: cancelled spill run left temp files: %v", i, left)
		}
		if err := atrest.Goroutines(beforeG+2, 5*time.Second); err != nil {
			t.Errorf("round %d: goroutine leak after cancel: %v", i, err)
		}
		if err := atrest.FDs(beforeFD, 0); err != nil {
			t.Errorf("round %d: fd leak after cancel: %v", i, err)
		}
	}
}

// TestSpillCancelBeforeStart asserts a pre-cancelled context is refused
// before any temp directory is created.
func TestSpillCancelBeforeStart(t *testing.T) {
	tmp := scopeTempDir(t)
	q := cancelQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Exec(ctx, q, WithRuntime("spill"), WithMemoryBudget(tinyBudget))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled spill Exec returned %v, want context.Canceled", err)
	}
	if left := spillTempFiles(t, tmp); len(left) != 0 {
		t.Fatalf("pre-cancelled spill Exec created temp files: %v", left)
	}
}

// TestSpillErrorMentionsRuntime asserts a spill-runtime verification
// failure is attributed to the spill runtime (the unified error path).
func TestSpillErrorMentionsRuntime(t *testing.T) {
	_, err := LookupRuntime("spill")
	if err != nil {
		t.Fatal(err)
	}
	_, err = LookupRuntime("no-such-runtime")
	if err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("unknown-runtime error %v does not list spill among registered runtimes", err)
	}
}
