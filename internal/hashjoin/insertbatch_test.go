package hashjoin

import (
	"math/rand"
	"runtime"
	"testing"

	"multijoin/internal/relation"
)

// sameTable reports the first difference between two tables' Len, MemBytes
// and First/Next/At walks over every key in keys, or "" if there is none.
func sameTable(a, b *Table, keys map[int64]bool) string {
	if a.Len() != b.Len() {
		return "Len differs"
	}
	if a.MemBytes() != b.MemBytes() {
		return "MemBytes differs"
	}
	for k := range keys {
		i, j := a.First(k), b.First(k)
		for ; i >= 0 && j >= 0; i, j = a.Next(i), b.Next(j) {
			if i != j || a.At(i) != b.At(j) {
				return "chain walk differs"
			}
		}
		if i >= 0 || j >= 0 {
			return "chain length differs"
		}
	}
	return ""
}

// TestInsertBatchMatchesRowInsert builds one table with InsertBatch and one
// with per-row Insert from the same random batches and checks they stay
// indistinguishable: same chains in the same arena order, same Len, same
// MemBytes. The batches carry duplicate keys, some cross the slot array's
// grow threshold mid-batch, and deletes between batches leave free rows, so
// batches start on the free-list prefix.
func TestInsertBatchMatchesRowInsert(t *testing.T) {
	// Start from empty tablePools (two collections empty a sync.Pool): an
	// arena an earlier test released would give one of the two tables a
	// larger capacity, and MemBytes would differ for that alone.
	runtime.GC()
	runtime.GC()
	for _, seed := range []int64{1, 7, 1995} {
		for _, hint := range []int{0, 300} {
			rng := rand.New(rand.NewSource(seed))
			bulk := NewTableSized(relation.Unique2, hint)
			rows := NewTableSized(relation.Unique2, hint)
			keys := map[int64]bool{}
			var live []relation.Tuple
			for step := 0; step < 60; step++ {
				// A narrow key domain makes duplicate chains; a wide one
				// adds distinct keys fast enough to cross the grow
				// threshold inside one batch.
				domain := int64(40)
				if rng.Intn(2) == 0 {
					domain = 1 << 20
				}
				var b relation.Batch
				for i, n := 0, 1+rng.Intn(300); i < n; i++ {
					tp := relation.Tuple{Unique1: rng.Int63n(1000), Unique2: rng.Int63n(domain), Check: rng.Uint64()}
					b.AppendTuple(tp)
					keys[tp.Unique2] = true
					live = append(live, tp)
				}
				bulk.InsertBatch(&b)
				for i := range b.Len() {
					rows.Insert(b.Tuple(i))
				}
				if d := sameTable(bulk, rows, keys); d != "" {
					t.Fatalf("seed %d hint %d step %d: after a batch of %d: %s", seed, hint, step, b.Len(), d)
				}
				for range rng.Intn(len(live)/4 + 1) {
					i := rng.Intn(len(live))
					tp := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if !bulk.Delete(tp) || !rows.Delete(tp) {
						t.Fatalf("seed %d hint %d step %d: Delete(%v) missed a present tuple", seed, hint, step, tp)
					}
				}
				if d := sameTable(bulk, rows, keys); d != "" {
					t.Fatalf("seed %d hint %d step %d: after deletes: %s", seed, hint, step, d)
				}
			}
			bulk.Release()
			rows.Release()
		}
	}
}

// TestInsertBatchAllocFree: a batch insert into a table sized for every
// run's rows allocates nothing — the arena columns, next included, are
// extended in place.
func TestInsertBatchAllocFree(t *testing.T) {
	const batch, runs = 256, 100
	var b relation.Batch
	for i := range batch {
		b.Append(int64(i), int64(i), uint64(i))
	}
	tab := NewTableSized(relation.Unique1, batch*(runs+1))
	allocs := testing.AllocsPerRun(runs, func() {
		tab.InsertBatch(&b)
		for i := range b.U1 {
			b.U1[i] += batch
		}
	})
	if allocs != 0 {
		t.Fatalf("InsertBatch of %d rows allocates %.1f/op, want 0", batch, allocs)
	}
	tab.Release()
}
