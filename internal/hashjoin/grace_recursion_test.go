package hashjoin

import (
	"testing"

	"multijoin/internal/relation"
	"multijoin/internal/spill"
)

// skewedKeys returns n distinct keys that all land in partition 0 at
// recursion level 0 — the adversarial input for single-level Grace: the
// whole operand piles into one partition, so a drain without recursive
// re-partitioning rebuilds it as one over-budget hash table.
func skewedKeys(n int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if gracePartition(k, 0) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestGraceRecursesOnSkewedPartition asserts that a partition whose build
// side alone exceeds the memory budget is re-partitioned a level deeper
// (Recursions > 0) and that the recursive drain still produces the exact
// result multiset of the in-memory reference join.
func TestGraceRecursesOnSkewedPartition(t *testing.T) {
	keys := skewedKeys(600)
	build := relation.New("build", 208)
	probe := relation.New("probe", 208)
	for i, k := range keys {
		// Two build tuples per key: duplicate chains must survive recursion.
		build.Append(relation.Tuple{Unique1: int64(i), Unique2: k, Check: uint64(i) * 0x9e37})
		build.Append(relation.Tuple{Unique1: int64(i + len(keys)), Unique2: k, Check: uint64(i)*0x9e37 + 7})
		if i%3 != 0 { // some probe keys miss
			probe.Append(relation.Tuple{Unique1: k, Unique2: int64(i), Check: uint64(i)*0xc2b2 + 1})
		}
	}
	spec := Spec{BuildIsLower: true}
	want := Join(build, probe, spec, false)

	// All 1200 build tuples (28800 bytes) share partition 0 at level 0;
	// a 4 KiB budget forces both spilling on the way in and recursion on
	// the way out. At level 1 the keys spread across fresh hash bits, so
	// each sub-partition fits.
	meter := spill.NewMeter(4 << 10)
	g := NewGrace(spec, meter, t.TempDir(), relation.NewBatchPool(32, 64))
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
	if g.Recursions() == 0 {
		t.Fatal("oversized skewed partition did not trigger recursive re-partitioning")
	}
	if diff := relation.DiffMultiset(got, want); diff != "" {
		t.Fatalf("recursive grace result differs from simple join: %s", diff)
	}
	g.Close()
	if meter.Live() != 0 {
		t.Fatalf("meter still holds %d live bytes after recursive drain", meter.Live())
	}
}

// TestGraceRecursionBottomsOutOnDuplicateKeys asserts the depth cap: an
// operand of one repeated key cannot be split by any partitioning, so the
// recursion must stop at maxGraceLevel and join the partition in one piece
// rather than loop forever.
func TestGraceRecursionBottomsOutOnDuplicateKeys(t *testing.T) {
	build := relation.New("build", 208)
	probe := relation.New("probe", 208)
	const key = 42
	for i := 0; i < 400; i++ {
		build.Append(relation.Tuple{Unique1: int64(i), Unique2: key, Check: uint64(i)})
	}
	probe.Append(relation.Tuple{Unique1: key, Unique2: 0, Check: 1})
	spec := Spec{BuildIsLower: true}
	want := Join(build, probe, spec, false)

	meter := spill.NewMeter(1 << 10) // 400×24 bytes of one key ≫ 1 KiB
	g := NewGrace(spec, meter, t.TempDir(), relation.NewBatchPool(32, 64))
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
	if g.Recursions() == 0 {
		t.Fatal("over-budget duplicate-key partition did not recurse at all")
	}
	if diff := relation.DiffMultiset(got, want); diff != "" {
		t.Fatalf("depth-capped grace result differs from simple join: %s", diff)
	}
}
