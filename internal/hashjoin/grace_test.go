package hashjoin

import (
	"math/rand"
	"os"
	"testing"

	"multijoin/internal/relation"
	"multijoin/internal/spill"
)

// graceOperands builds two operands whose join has both matches and misses,
// with duplicate keys on the build side to exercise chain iteration.
func graceOperands(seed int64, buildCard, probeCard int) (build, probe *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	build = relation.New("build", 208)
	probe = relation.New("probe", 208)
	for i := 0; i < buildCard; i++ {
		build.Append(relation.Tuple{
			Unique1: int64(rng.Intn(buildCard)),
			Unique2: int64(rng.Intn(probeCard + probeCard/2)), // some keys miss
			Check:   uint64(i) * 0x9e37,
		})
	}
	for i := 0; i < probeCard; i++ {
		probe.Append(relation.Tuple{
			Unique1: int64(i),
			Unique2: int64(rng.Intn(probeCard)),
			Check:   uint64(i)*0xc2b2 + 1,
		})
	}
	return build, probe
}

// batchOf transposes row-form tuples into a fresh columnar batch — the
// shape Grace's Add methods take.
func batchOf(ts []relation.Tuple) *relation.Batch {
	b := relation.NewBatch(len(ts))
	b.AppendTuples(ts)
	return b
}

// runGrace joins the operands with a Grace join under the given budget,
// feeding both sides in interleaved batches, and returns the result plus
// how many partitions spilled.
func runGrace(t *testing.T, build, probe *relation.Relation, budget int64) (*relation.Relation, int) {
	t.Helper()
	dir := t.TempDir()
	meter := spill.NewMeter(budget)
	pool := relation.NewBatchPool(32, 64)
	g := NewGrace(Spec{BuildIsLower: true}, meter, dir, pool)
	defer g.Close()
	const chunk = 24
	bi, pi := 0, 0
	for bi < build.Card() || pi < probe.Card() {
		if bi < build.Card() {
			hi := min(bi+chunk, build.Card())
			if err := g.AddBuild(batchOf(build.Tuples[bi:hi])); err != nil {
				t.Fatal(err)
			}
			bi = hi
		}
		if pi < probe.Card() {
			hi := min(pi+chunk, probe.Card())
			if err := g.AddProbe(batchOf(probe.Tuples[pi:hi])); err != nil {
				t.Fatal(err)
			}
			pi = hi
		}
	}
	sb, sp := g.SpilledSides()
	out := relation.New("grace", build.TupleBytes)
	if err := g.Drain(func(results *relation.Batch, _ []int32) error {
		results.AppendTo(out) // AppendTo copies; the chunk may be reused
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out, sb + sp
}

// TestGraceMatchesSimple asserts the Grace join produces the identical
// result multiset as the simple hash-join, both fully in memory and under a
// budget tiny enough that every partition spills.
func TestGraceMatchesSimple(t *testing.T) {
	build, probe := graceOperands(7, 700, 900)
	spec := Spec{BuildIsLower: true}
	want := Join(build, probe, spec, false)
	for _, tc := range []struct {
		name      string
		budget    int64
		wantSpill bool
	}{
		{"in-memory", 1 << 30, false},
		{"tiny-budget", 1 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, spilled := runGrace(t, build, probe, tc.budget)
			if diff := relation.DiffMultiset(got, want); diff != "" {
				t.Fatalf("grace result differs from simple join: %s", diff)
			}
			if tc.wantSpill && spilled == 0 {
				t.Fatalf("budget %d forced no spilled partitions", tc.budget)
			}
			if !tc.wantSpill && spilled != 0 {
				t.Fatalf("budget %d spilled %d partitions, want none", tc.budget, spilled)
			}
		})
	}
}

// TestGraceMatchesPipelining asserts Grace and the pipelining join agree on
// the mirrored spec too (BuildIsLower=false).
func TestGraceMatchesPipelining(t *testing.T) {
	build, probe := graceOperands(11, 500, 400)
	spec := Spec{BuildIsLower: false}
	want := Join(build, probe, spec, true)
	dir := t.TempDir()
	g := NewGrace(spec, spill.NewMeter(1<<11), dir, relation.NewBatchPool(32, 64))
	defer g.Close()
	if err := g.AddBuild(batchOf(build.Tuples)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProbe(batchOf(probe.Tuples)); err != nil {
		t.Fatal(err)
	}
	got := relation.New("grace", build.TupleBytes)
	if err := g.Drain(func(rs *relation.Batch, _ []int32) error { rs.AppendTo(got); return nil }); err != nil {
		t.Fatal(err)
	}
	if diff := relation.DiffMultiset(got, want); diff != "" {
		t.Fatalf("grace result differs from pipelining join: %s", diff)
	}
}

// TestGraceDrainRemovesFiles asserts a drained join leaves no partition
// files behind, and that Close after Drain stays idempotent.
func TestGraceDrainRemovesFiles(t *testing.T) {
	build, probe := graceOperands(3, 300, 300)
	dir := t.TempDir()
	meter := spill.NewMeter(1 << 10)
	g := NewGrace(Spec{BuildIsLower: true}, meter, dir, relation.NewBatchPool(32, 64))
	if err := g.AddBuild(batchOf(build.Tuples)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProbe(batchOf(probe.Tuples)); err != nil {
		t.Fatal(err)
	}
	if meter.Partitions() == 0 {
		t.Fatal("tiny budget created no spill partitions")
	}
	if err := g.Drain(func(*relation.Batch, []int32) error { return nil }); err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("drain left %d partition files behind", len(entries))
	}
	if meter.Live() != 0 {
		t.Fatalf("meter still holds %d live bytes after drain", meter.Live())
	}
	if meter.SpilledBytes() == 0 || meter.IOTime() == 0 {
		t.Fatalf("spill stats not recorded: bytes=%d io=%v", meter.SpilledBytes(), meter.IOTime())
	}
}
