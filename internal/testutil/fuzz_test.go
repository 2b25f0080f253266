package testutil

import (
	"context"
	"os"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/dist"
	"multijoin/internal/relation"
)

// TestMain lets the dist runtime spawn its workers by re-executing this
// test binary (InitWorker never returns in a spawned worker process).
func TestMain(m *testing.M) {
	dist.InitWorker()
	os.Exit(m.Run())
}

// runtimesUnderTest are the four built-in runtimes the differential
// harness compares, named explicitly so runtimes registered by other tests
// cannot change what the fuzz target asserts.
var runtimesUnderTest = []string{"sim", "parallel", "spill", "dist"}

// execScenario runs a scenario on one runtime and returns the result
// relation of each run. The spill runtime gets the scenario's forcing memory budget so
// the out-of-core path is exercised, not just registered; the dist runtime
// runs the scenario across two loopback worker processes. The parallel
// runtime is consumed through the session API — an Engine and a streaming
// Rows cursor — so the fuzz harness also differential-tests the cursor
// hand-off (pooled batch ownership, release on Next) against the other
// backends' materialized paths — twice, so that the second run re-arms the
// shell the first left to the engine.
func execScenario(t testing.TB, s *Scenario, rt string) []*relation.Relation {
	t.Helper()
	opts := []core.Option{core.WithRuntime(rt), core.WithBatchTuples(s.BatchTuples)}
	if rt == "parallel" {
		eng, err := core.Open(s.Query.DB)
		if err != nil {
			t.Fatalf("%s: %s: Open: %v", s.Desc, rt, err)
		}
		defer eng.Close()
		var runs []*relation.Relation
		for range 2 {
			rows, err := eng.Query(context.Background(), s.Query, opts...)
			if err != nil {
				t.Fatalf("%s: %s: Query: %v", s.Desc, rt, err)
			}
			got := relation.New("result", 0)
			for tp := range rows.Iter() {
				got.Append(tp)
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %s: Rows: %v", s.Desc, rt, err)
			}
			runs = append(runs, got)
		}
		return runs
	}
	if rt == "spill" {
		opts = append(opts, core.WithMemoryBudget(s.MemoryBudget))
	}
	if rt == "dist" {
		opts = append(opts, core.WithWorkers(2))
	}
	res, err := core.Exec(context.Background(), s.Query, opts...)
	if err != nil {
		t.Fatalf("%s: %s: %v", s.Desc, rt, err)
	}
	return []*relation.Relation{res.Result}
}

// FuzzExecEquivalence is the randomized differential harness: for any
// generated scenario — seeded sizes, skewed cardinalities, all four
// strategies, bushy and linear tree shapes — the simulator, the goroutine
// runtime, the out-of-core spill runtime and the multi-process dist runtime
// (two loopback workers) must each produce exactly the checksum multiset of
// the sequential reference execution. The provenance
// checksums make the assertion total: a lost, duplicated, or wrongly
// combined tuple anywhere in any runtime changes the multiset.
func FuzzExecEquivalence(f *testing.F) {
	// Seed corpus: every strategy × size class, across shapes (the
	// selectors are reduced modulo their domain, so 0..4 name the shapes
	// in paper order and 0..3 the strategies SP, SE, RD, FP).
	for strat := int64(0); strat < 4; strat++ {
		for size := int64(0); size < 3; size++ {
			f.Add(int64(1995)+strat*31+size, strat+size, strat, size)
		}
	}
	f.Add(int64(7), int64(3), int64(3), int64(2)) // right-bushy FP skewed
	f.Add(int64(-1), int64(-2), int64(-3), int64(-4))
	f.Fuzz(func(t *testing.T, seed, shapeSel, stratSel, sizeSel int64) {
		s, err := Generate(seed, shapeSel, stratSel, sizeSel)
		if err != nil {
			t.Fatalf("generator rejected (%d,%d,%d,%d): %v", seed, shapeSel, stratSel, sizeSel, err)
		}
		want := core.Reference(s.Query.DB, s.Query.Tree)
		for _, rt := range runtimesUnderTest {
			for i, got := range execScenario(t, s, rt) {
				if diff := relation.DiffMultiset(got, want); diff != "" {
					t.Errorf("%s: %s run %d result differs from sequential reference: %s", s.Desc, rt, i+1, diff)
				}
			}
		}
	})
}

// TestGenerateDeterministic asserts the generator is a pure function of its
// selectors — the property that makes fuzz failures reproducible.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(42, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Desc != b.Desc {
		t.Fatalf("same selectors, different scenarios:\n%s\n%s", a.Desc, b.Desc)
	}
	if !relation.EqualMultiset(a.Query.DB.Relation(0), b.Query.DB.Relation(0)) {
		t.Fatal("same selectors generated different databases")
	}
}

// TestGenerateCoversDomains asserts selector reduction reaches every shape
// and strategy, including from negative fuzzer inputs.
func TestGenerateCoversDomains(t *testing.T) {
	shapes := map[string]bool{}
	strategies := map[string]bool{}
	for sel := int64(-5); sel < 5; sel++ {
		s, err := Generate(1, sel, sel, sel)
		if err != nil {
			t.Fatal(err)
		}
		shapes[s.Query.Tree.String()] = true
		strategies[s.Query.Strategy.String()] = true
	}
	if len(strategies) != 4 {
		t.Errorf("selector sweep hit %d strategies, want 4", len(strategies))
	}
	if len(shapes) < 2 {
		t.Errorf("selector sweep hit %d tree shapes, want several", len(shapes))
	}
}
