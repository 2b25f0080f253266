package hashjoin

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"multijoin/internal/relation"
)

// refTable is a map-based multiset reference for differential-testing
// Table's delete path.
type refTable map[relation.Tuple]int

func (r refTable) insert(tp relation.Tuple) { r[tp]++ }

func (r refTable) delete(tp relation.Tuple) bool {
	if r[tp] == 0 {
		return false
	}
	r[tp]--
	if r[tp] == 0 {
		delete(r, tp)
	}
	return true
}

// matches returns the reference's tuples whose attr equals k, as a sorted
// multiset.
func (r refTable) matches(attr relation.Attr, k int64) []relation.Tuple {
	var out []relation.Tuple
	for tp, n := range r {
		if tp.Get(attr) == k {
			for i := 0; i < n; i++ {
				out = append(out, tp)
			}
		}
	}
	sortTuples(out)
	return out
}

func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Unique1 != b.Unique1 {
			return a.Unique1 < b.Unique1
		}
		if a.Unique2 != b.Unique2 {
			return a.Unique2 < b.Unique2
		}
		return a.Check < b.Check
	})
}

// TestTableDeleteDifferential drives random interleaved insert/delete
// sequences through Table and the map reference, checking chain lookups
// and the live count after every operation batch. Small key ranges force
// duplicate chains; small initial sizing forces growth mid-sequence, and
// heavy delete phases force backward-shift slot clearing across clusters.
func TestTableDeleteDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 1995, 40} {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(relation.Unique2)
		ref := refTable{}
		var pool []relation.Tuple // tuples currently inserted (with multiplicity)
		for step := 0; step < 4000; step++ {
			if len(pool) == 0 || rng.Intn(100) < 55 {
				tp := relation.Tuple{
					Unique1: int64(rng.Intn(300)),
					Unique2: int64(rng.Intn(97)), // narrow: long duplicate chains
					Check:   uint64(rng.Intn(50)),
				}
				tab.Insert(tp)
				ref.insert(tp)
				pool = append(pool, tp)
			} else if rng.Intn(100) < 90 {
				// Delete a tuple that is present.
				i := rng.Intn(len(pool))
				tp := pool[i]
				pool[i] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				if !tab.Delete(tp) {
					t.Fatalf("seed %d step %d: Delete(%v) = false for a present tuple", seed, step, tp)
				}
				if !ref.delete(tp) {
					t.Fatalf("seed %d step %d: reference out of sync", seed, step)
				}
			} else {
				// Delete a tuple that is absent (fresh Check value).
				tp := relation.Tuple{Unique1: 1, Unique2: int64(rng.Intn(97)), Check: 1 << 60}
				if tab.Delete(tp) {
					t.Fatalf("seed %d step %d: Delete(%v) = true for an absent tuple", seed, step, tp)
				}
			}
			if tab.Len() != len(pool) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tab.Len(), len(pool))
			}
			if step%97 == 0 {
				for k := int64(0); k < 97; k++ {
					got := tab.Matches(k)
					sortTuples(got)
					want := ref.matches(relation.Unique2, k)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d key %d: %d matches, want %d", seed, step, k, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d step %d key %d: match %d = %v, want %v", seed, step, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestTableDeleteDrainRefill empties a grown table tuple by tuple and
// refills it, checking the free list hands every arena row back out: the
// arena must not grow past its high-water mark.
func TestTableDeleteDrainRefill(t *testing.T) {
	tab := NewTable(relation.Unique1)
	const n = 10000
	for i := 0; i < n; i++ {
		tab.Insert(relation.Tuple{Unique1: int64(i), Unique2: int64(i % 13), Check: uint64(i)})
	}
	highWater := cap(tab.u1)
	for i := 0; i < n; i++ {
		if !tab.Delete(relation.Tuple{Unique1: int64(i), Unique2: int64(i % 13), Check: uint64(i)}) {
			t.Fatalf("Delete #%d failed", i)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", tab.Len())
	}
	if tab.used != 0 {
		t.Fatalf("used = %d after draining, want 0", tab.used)
	}
	for i := 0; i < n; i++ {
		tab.Insert(relation.Tuple{Unique1: int64(n + i), Unique2: int64(i % 13), Check: uint64(i)})
	}
	if cap(tab.u1) != highWater {
		t.Fatalf("arena grew on refill: cap %d, high-water %d (free list not reused)", cap(tab.u1), highWater)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d after refill, want %d", tab.Len(), n)
	}
	tab.Release()
}

// TestRecycledTableStartsEmpty: a table handed out again by NewTableSized
// carries nothing of its previous life. The released table was keyed on
// Unique1 and had deleted rows on its free list; its successor, of the same
// slot class and keyed on Unique2, is empty, finds none of the old keys,
// and after inserts and deletes of its own agrees with the MapTable oracle
// over what remains — with as many occupied slots as it counts (used).
func TestRecycledTableStartsEmpty(t *testing.T) {
	const hint = 512
	rng := rand.New(rand.NewSource(35))
	var tab *Table
	for try := 0; tab == nil; try++ {
		if try == 20 {
			t.Skip("the pool never handed the released table's memory back (race detector)")
		}
		old := NewTableSized(relation.Unique1, hint)
		var rows []relation.Tuple
		for i := range 400 {
			tp := relation.Tuple{Unique1: int64(rng.Intn(300)), Unique2: int64(i), Check: uint64(i)}
			old.Insert(tp)
			rows = append(rows, tp)
		}
		for _, tp := range rows[:100] {
			old.Delete(tp)
		}
		if old.free == 0 {
			t.Fatal("deletes left no free-listed row")
		}
		head := &old.head[0]
		old.Release()
		if tab = NewTableSized(relation.Unique2, hint); &tab.head[0] != head {
			tab.Release()
			tab = nil
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("a recycled table holds %d tuples", tab.Len())
	}
	for k := range int64(300) {
		if m := tab.Matches(k); m != nil {
			t.Fatalf("a recycled table matches old key %d: %v", k, m)
		}
	}
	var live []relation.Tuple
	for i := range 300 {
		tp := relation.Tuple{Unique1: int64(i), Unique2: int64(rng.Intn(200)), Check: uint64(rng.Intn(50))}
		tab.Insert(tp)
		live = append(live, tp)
		if i%3 == 0 {
			j := rng.Intn(len(live))
			if !tab.Delete(live[j]) {
				t.Fatalf("Delete(%v) = false for a present tuple", live[j])
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	oracle := NewMapTable(relation.Unique2)
	for _, tp := range live {
		oracle.Insert(tp)
	}
	if tab.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", tab.Len(), oracle.Len())
	}
	for k := range int64(300) {
		if got, want := tab.Matches(k), oracle.Matches(k); !sameMultiset(got, want) {
			t.Fatalf("key %d: matches %v, oracle %v", k, got, want)
		}
	}
	occupied := 0
	for _, h := range tab.head {
		if h != 0 {
			occupied++
		}
	}
	if occupied != tab.used {
		t.Fatalf("%d occupied slots, the table counts %d", occupied, tab.used)
	}
	tab.Release()
}

// TestTableDeleteAllocFree gates the steady-state delete/insert cycle at
// zero allocations — the resident view's per-delta hot path.
func TestTableDeleteAllocFree(t *testing.T) {
	tab := NewTableSized(relation.Unique1, 4096)
	for i := 0; i < 2048; i++ {
		tab.Insert(relation.Tuple{Unique1: int64(i), Unique2: int64(i), Check: uint64(i)})
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		tab.Delete(relation.Tuple{Unique1: i, Unique2: i, Check: uint64(i)})
		tab.Insert(relation.Tuple{Unique1: i + 4096, Unique2: i + 4096, Check: uint64(i)})
		i++
	})
	if allocs != 0 {
		t.Fatalf("delete/insert cycle allocates %.1f/op, want 0", allocs)
	}
	tab.Release()
}

// TestTableRetractDifferential: retracting a batch (the two-phase delete of
// RetractInto) leaves the table and the batch exactly as Delete row by row
// would — the same rows found, in order, and the same chains — on batches
// that repeat keys and tuples, delete tuples that are absent or already
// deleted earlier in the batch, and empty slots in the middle of clusters,
// so that later rows of the batch must be resolved again.
func TestTableRetractDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 1995, 40} {
		rng := rand.New(rand.NewSource(seed))
		// A table of few slots and keys that all collide into long clusters,
		// and its twin that deletes row by row.
		tab, twin := NewTableSized(relation.Unique2, 8), NewTableSized(relation.Unique2, 8)
		var pool []relation.Tuple
		for round := 0; round < 200; round++ {
			for i := rng.Intn(40); i > 0; i-- {
				tp := relation.Tuple{Unique1: int64(rng.Intn(8)), Unique2: int64(rng.Intn(60)), Check: uint64(rng.Intn(4))}
				tab.Insert(tp)
				twin.Insert(tp)
				pool = append(pool, tp)
			}
			var b relation.Batch
			for i := rng.Intn(48); i > 0 && len(pool) > 0; i-- {
				tp := pool[rng.Intn(len(pool))] // may repeat: its second deletion may find nothing
				if rng.Intn(8) == 0 {
					tp.Check = 99 // absent
				}
				b.AppendTuple(tp)
			}
			var want []relation.Tuple
			for _, tp := range b.Tuples() {
				if twin.Delete(tp) {
					want = append(want, tp)
				}
			}
			tab.retract(&b)
			if got := b.Tuples(); len(got) != len(want) || (len(got) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("seed %d round %d: retract kept %v, Delete row by row %v", seed, round, got, want)
			}
			if tab.Len() != twin.Len() || tab.used != twin.used {
				t.Fatalf("seed %d round %d: %d tuples in %d slots, row by row %d in %d", seed, round, tab.Len(), tab.used, twin.Len(), twin.used)
			}
			for k := int64(0); k < 60; k++ {
				if got, want := tab.Matches(k), twin.Matches(k); !slices.Equal(got, want) {
					t.Fatalf("seed %d round %d key %d: chain %v, row by row %v", seed, round, k, got, want)
				}
			}
			pool = pool[:0]
			for k := int64(0); k < 60; k++ {
				pool = append(pool, twin.Matches(k)...)
			}
		}
	}
}
