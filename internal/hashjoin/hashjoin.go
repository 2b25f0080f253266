// Package hashjoin implements the two main-memory join algorithms compared
// in the paper (Section 2.3.2) as one state machine, Pipelining:
//
//   - the pipelining hash-join [WiA90, WiA91]: a symmetric one-phase
//     algorithm that maintains a hash table for *both* operands. Each
//     arriving batch is hashed, probes the part of the other operand's table
//     built so far, emits any matches, and is then inserted into its own
//     table. Result tuples are produced as early as possible, enabling
//     pipelining along both operands at the cost of a second hash table;
//
//   - the simple hash-join: a two-phase build-probe algorithm that first
//     builds a hash table over its build (inner/"left") operand and then
//     streams the probe (outer/"right") operand through it. It is the
//     pipelining join whose caller ends the build operand before the first
//     probe batch: the pipelining join then inserts nothing more, only
//     probes, and never creates its second table.
//
// The state machine works on columnar batches; the execution engine drives
// it and separately accounts simulated time. Join runs it over two
// materialized relations for the sequential reference.
//
// The hash table itself is an open-addressing table over a flat slot array
// plus a tuple arena (see Table) — the compact, reusable state the symmetric
// hash-join literature assumes — so steady-state inserts and probes allocate
// nothing. The retired map[int64][]Tuple implementation lives on in
// maptable_test.go as the reference for the differential tests.
//
// Join semantics follow the chain query of Section 4.1: the operand covering
// the lower chain span joins its Unique2 attribute against the Unique1
// attribute of the higher-span operand (the shared boundary attribute), and
// the result tuple is (lower.Unique1, higher.Unique2) with a provenance
// checksum combining both inputs — again a Wisconsin-shaped tuple, as the
// paper's projection step demands.
package hashjoin

import (
	"math/bits"
	"sync"

	"multijoin/internal/relation"
)

// Spec fixes the roles of the two operands of one binary join. Build is the
// operand a simple hash-join builds its table from (the paper's "left"
// operand); Probe streams. BuildIsLower records which operand covers the
// lower chain span and therefore which join attributes apply.
type Spec struct {
	// BuildIsLower is true when the build operand covers the lower chain
	// span. Left-oriented trees build on the lower (intermediate) side;
	// mirrored trees flip this.
	BuildIsLower bool
	// Tags, when set, tags every result row by its join key
	// (Pipelining.Tags): a join that stands for several hash partitions at
	// once tells its caller which one produced each row. Nil tags nothing.
	Tags *Tags
}

// Tags maps a join key to the tag of its hash partition, Of[Bk.Bucket(key)],
// and keeps the tags of the result rows of the join's last batch call (Rows,
// Pipelining.Tags): scratch for one join at a time — out of core, a Grace
// join's partitions take turns with it.
type Tags struct {
	Bk   relation.Bucketer
	Of   []int32
	Rows []int32
}

// BuildAttr returns the join attribute of the build operand: the lower span
// joins on Unique2, the higher span on Unique1.
func (s Spec) BuildAttr() relation.Attr {
	if s.BuildIsLower {
		return relation.Unique2
	}
	return relation.Unique1
}

// ProbeAttr returns the join attribute of the probe operand.
func (s Spec) ProbeAttr() relation.Attr {
	if s.BuildIsLower {
		return relation.Unique1
	}
	return relation.Unique2
}

// Result combines one build-side and one probe-side tuple into the join
// result tuple. Independent of which operand built the table, the result is
// (lower.Unique1, higher.Unique2, combine(lower.Check, higher.Check)), so
// every algorithm and every strategy produces the identical relation for a
// given join tree.
func (s Spec) Result(build, probe relation.Tuple) relation.Tuple {
	lower, higher := build, probe
	if !s.BuildIsLower {
		lower, higher = probe, build
	}
	return relation.Tuple{
		Unique1: lower.Unique1,
		Unique2: higher.Unique2,
		Check:   relation.CombineChecks(lower.Check, higher.Check),
	}
}

// minSlots keeps the slot array non-empty so the probe loop needs no
// emptiness check.
const minSlots = 16

// RadixBuildMinTuples is the batch size from which a bulk insert
// (InsertBatchRadix) partitions its rows by destination slot before
// inserting: below it the slot array fits in cache and the scatter order is
// irrelevant; above it slot-ordered insertion turns random slot-array
// writes into near-sequential ones.
const RadixBuildMinTuples = 1 << 14

// radixBuckets is the fan-out of the slot-ordered bulk insert.
const radixBuckets = 256

// Table is an in-memory hash table over one join attribute: an
// open-addressing slot array (linear probing, power-of-two size, no
// tombstones) whose slots point into a columnar tuple arena (parallel
// u1/u2/check columns plus a next column for duplicate chains), so one
// slot per distinct key and three flat []int64-shaped arrays for the
// probe loops to stream over. Steady-state Insert performs no per-key
// allocation; growth doubles the slot array and re-seats slot heads
// without touching the arena. The arena is insertion-ordered, so a batch's
// columns go in as one copy each (InsertBatch).
//
// Slot heads and chain links store arena index + 1, with 0 meaning
// empty/end-of-chain: the zero value of a freshly made slot array is
// already "all empty", so neither construction nor growth pays a fill
// loop. The exported First/Next/At iteration API keeps its historical
// 0-based indices with negative meaning "none".
//
// Delete removes one tuple instance again (incremental view maintenance
// retracts tuples from resident tables). A slot whose last chain entry is
// deleted is emptied by backward-shift deletion — displaced entries are
// relocated into the hole — rather than tombstoned, so the probe loops
// keep their two-state slot model (occupied or empty, never "deleted")
// and stay byte-identical to the insert-only table. Freed arena rows are
// threaded onto a free list through the next column and reused by later
// inserts, keeping a steady-state delete/insert workload allocation-free.
//
// Sizing the table from the operand's declared cardinality (NewTableSized)
// avoids rehash churn entirely — the PRISMA/DB setting, where scans declare
// their fragment sizes up front. A table is recycled whole: Release empties
// it into a pool of its slot class (tablePools), and NewTableSized hands it
// out again, so a warm process's table costs no allocation at all.
//
// A key's home slot is the top log2(slots) bits of its multiplicative hash
// (see home), not the low bits. A join process receives its operands by
// redistribution on relation.HashKey(k, n) — the same multiply, folded,
// modulo n — so the keys one process stores agree on the low bits of the
// folded hash wherever n has a factor of two: low-bit homes left a process
// 1/16 of the slots at n = 16 and 1/128 at n = 128, and a hit walked 6 and
// 32–40 slots. The top bits a table reads are not among those the routing
// fixed (for n up to 128 and tables below 2^25 slots). gracePartition meets
// the same hazard with a salted hash.
//
// A nil *Table is the empty table of a join side that has none — not yet, or
// no longer (see Pipelining): it matches nothing, Len, MemBytes and Release
// read it as empty, and Pipelining.RetractInto finds nothing to delete in it.
type Table struct {
	attr relation.Attr
	keys []int64 // keys[s] is meaningful only when head[s] != 0
	head []int32 // slot -> arena index+1 of the key's chain head; 0 = empty
	// Columnar arena, insertion-ordered. next[i] is the arena index+1 of
	// the next tuple with the same key, 0 at the end of the chain. Rows on
	// the free list reuse next as the free-list link.
	u1    []int64
	u2    []int64
	check []uint64
	next  []int32
	free  int32 // arena index+1 of the first free (deleted) row; 0 = none
	used  int   // occupied slots (distinct keys)
	live  int   // inserted minus deleted tuples
	mask  uint64
	shift uint // 64 - log2(slots): hash >> shift is a home slot
	// heads is the scratch of the batches that probe the table (probe),
	// recycled with the table.
	heads  []int32
	pooled bool // released and in tablePools until NewTableSized hands it out
}

// hashKey mixes a join-attribute value for slot addressing: relation.HashKey's
// multiplier without its fold, so the top bits, which the table reads, are
// the best-mixed ones.
func hashKey(k int64) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// home returns k's home slot: the top log2(slots) bits of its hash, which
// spread one process's keys over the whole table whatever number of
// processes redistribution routed them over (see Table).
func (t *Table) home(k int64) uint64 { return hashKey(k) >> t.shift }

// slotShift returns the shift that maps a hash onto one of slots (a power
// of two) home slots.
func slotShift(slots int) uint { return uint(64 - bits.TrailingZeros(uint(slots))) }

// NewTable returns an empty hash table keyed on the given attribute, sized
// for small inputs. Use NewTableSized when the cardinality is known.
func NewTable(attr relation.Attr) *Table { return NewTableSized(attr, 0) }

// tablePools recycles released tables by slot class; index i holds tables
// whose slot arrays have exactly 1<<i slots. Join tables are born and die
// with every operation process, so recycling them whole — the struct with
// its slot arrays, arena columns and probe scratch — takes the dominant
// allocation (and the page-zeroing that comes with it) out of the per-query
// cost. sync.Pool keeps the recycling GC-aware: an idle process drops the
// hoard on the next cycle.
var tablePools [33]sync.Pool

// Release empties the table and puts it into the recycle pool, from which
// NewTableSized hands it out again. Only the owner that created the table
// may release it, and must not touch the table — or any tuple slice
// previously returned by Matches, which aliases the arena — afterwards: once
// handed out again it is another owner's. A second Release is a no-op until
// then. Built with -tags pooldebug, a released table is never handed out
// again (its memory moves to a fresh one), so a stale owner's use panics
// on its nil slot arrays and a second Release panics outright.
func (t *Table) Release() {
	if t == nil {
		return
	}
	if t.pooled {
		releasedAgain(t)
		return
	}
	slots := len(t.head)
	t.u1, t.u2, t.check, t.next = t.u1[:0], t.u2[:0], t.check[:0], t.next[:0]
	t.free, t.used, t.live = 0, 0, 0
	t.pooled = true
	tablePools[bits.TrailingZeros(uint(slots))].Put(recycled(t))
}

// NewTableSized returns an empty hash table keyed on the given attribute
// with capacity for hint tuples before any growth: a released table of the
// same slot class when the pool has one.
func NewTableSized(attr relation.Attr, hint int) *Table {
	slots := minSlots
	for slots*3 < hint*4 { // keep load factor under 3/4 at hint tuples
		slots *= 2
	}
	t, _ := tablePools[bits.TrailingZeros(uint(slots))].Get().(*Table)
	if t != nil {
		// Only the chain heads must read as empty; keys[s] is never read
		// while head[s] == 0, so the stale keys need no clearing.
		clear(t.head)
		t.pooled = false
	} else {
		t = &Table{keys: make([]int64, slots), head: make([]int32, slots)}
	}
	t.attr, t.mask, t.shift = attr, uint64(slots-1), slotShift(slots)
	if hint > 0 && cap(t.u1) < hint {
		t.u1 = make([]int64, 0, hint)
		t.u2 = make([]int64, 0, hint)
		t.check = make([]uint64, 0, hint)
		t.next = make([]int32, 0, hint)
	}
	return t
}

// Insert adds a tuple.
func (t *Table) Insert(tp relation.Tuple) {
	t.insert(tp.Get(t.attr), tp.Unique1, tp.Unique2, tp.Check)
}

// insert adds one row given its key and column values.
func (t *Table) insert(k, u1v, u2v int64, ck uint64) {
	t.insertAt(t.home(k), k, u1v, u2v, ck)
}

// insertAt is insert with the home slot precomputed (the radix bulk insert
// computes it once for bucketing and reuses it here).
func (t *Table) insertAt(s uint64, k, u1v, u2v int64, ck uint64) {
	t.live++
	for t.head[s] != 0 {
		if t.keys[s] == k {
			t.head[s] = t.newRow(u1v, u2v, ck, t.head[s])
			return
		}
		s = (s + 1) & t.mask
	}
	t.head[s] = t.newRow(u1v, u2v, ck, 0)
	t.keys[s] = k
	t.used++
	if t.used*4 > len(t.head)*3 {
		t.grow(len(t.head) * 2)
	}
}

// newRow stores one arena row — popping the free list when a deleted row
// can be reused, appending otherwise — and returns its index+1.
func (t *Table) newRow(u1v, u2v int64, ck uint64, next int32) int32 {
	if e := t.free; e != 0 {
		j := e - 1
		t.free = t.next[j]
		t.u1[j], t.u2[j], t.check[j] = u1v, u2v, ck
		t.next[j] = next
		return e
	}
	t.u1 = append(t.u1, u1v)
	t.u2 = append(t.u2, u2v)
	t.check = append(t.check, ck)
	t.next = append(t.next, next)
	return int32(len(t.u1))
}

// InsertBatch adds every tuple of a columnar batch the way the arena stores
// it: by the column. Rows that can reuse free-listed arena rows (only
// deletes create them) go in one at a time; the rest of the batch lands at
// the arena's end as one bulk copy per column, and a loop over the key
// column then only links each new row into its key's chain. The arena
// order, the chains and the capacities are the ones inserting the rows one
// by one would leave, so probes emit in the same order and MemBytes does
// not depend on how the table was filled.
func (t *Table) InsertBatch(b *relation.Batch) {
	keys := b.Col(t.attr)
	i := 0
	for ; i < len(keys) && t.free != 0; i++ {
		t.insert(keys[i], b.U1[i], b.U2[i], b.Check[i])
	}
	n := len(keys) - i
	base := int32(len(t.u1))
	t.u1 = append(reserveCol(t.u1, n), b.U1[i:]...)
	t.u2 = append(reserveCol(t.u2, n), b.U2[i:]...)
	t.check = append(reserveCol(t.check, n), b.Check[i:]...)
	t.next = reserveCol(t.next, n)[:len(t.next)+n]
	clear(t.next[base:])
	t.live += n
	// insertAt's chain linking for arena row e, with the slot arrays held
	// in locals (reloaded after a grow).
	head, tkeys, next := t.head, t.keys, t.next
	mask, shift := t.mask, t.shift
	for j, k := range keys[i:] {
		e := base + int32(j) + 1
		s := hashKey(k) >> shift
		for head[s] != 0 && tkeys[s] != k {
			s = (s + 1) & mask
		}
		if h := head[s]; h != 0 {
			next[e-1] = h
			head[s] = e
			continue
		}
		head[s], tkeys[s] = e, k
		t.used++
		if t.used*4 > len(head)*3 {
			t.grow(len(head) * 2)
			head, tkeys, mask, shift = t.head, t.keys, t.mask, t.shift
		}
	}
}

// reserveCol returns col with room for n more elements. It grows the
// column in the steps n single-element appends would take, so a bulk copy
// leaves the capacity, and with it MemBytes, a row-at-a-time insert would.
func reserveCol[E int32 | int64 | uint64](col []E, n int) []E {
	for cap(col)-len(col) < n {
		col = append(col[:cap(col)], 0)[:len(col)]
	}
	return col
}

// InsertBatchRadix is InsertBatch with a radix-partitioned build for large
// batches: rows are bucketed by the slot range their key hashes into
// (counting sort over the key column) and inserted bucket-by-bucket, so
// writes to the slot array proceed nearly sequentially instead of striding
// randomly across a table that no longer fits in cache. Small batches fall
// through to the plain insert loop.
func (t *Table) InsertBatchRadix(b *relation.Batch) {
	if b.Len() < RadixBuildMinTuples {
		t.InsertBatch(b)
		return
	}
	t.insertRadix(b)
}

// insertRadix is InsertBatchRadix's radix path. It is a function of its own
// so that the per-batch builds, which never take it, do not carry its
// 3 KiB of bucket arrays in their stack frame, which worker goroutines
// would otherwise grow their stacks to fit.
func (t *Table) insertRadix(b *relation.Batch) {
	n := b.Len()
	// Pre-grow so no rehash happens mid-build (growth would remap the
	// slot ranges the buckets were computed from).
	t.reserve(len(t.u1) + n)
	// A bucket is the top byte of the home slot; the table has at least
	// RadixBuildMinTuples slots here, far more than radixBuckets.
	shift := bits.TrailingZeros(uint(len(t.head) / radixBuckets))
	keys := b.Col(t.attr)
	homes := make([]uint64, n)
	var counts [radixBuckets]int32
	for i, k := range keys {
		s := t.home(k)
		homes[i] = s
		counts[s>>shift]++
	}
	starts := make([]int32, radixBuckets)
	var sum int32
	for bkt, c := range counts {
		starts[bkt] = sum
		sum += c
	}
	order := make([]int32, n)
	for i, s := range homes {
		bkt := s >> shift
		order[starts[bkt]] = int32(i)
		starts[bkt]++
	}
	for _, i := range order {
		t.insertAt(homes[i], keys[i], b.U1[i], b.U2[i], b.Check[i])
	}
}

// reserve grows the slot array until total tuples fit under the 3/4 load
// factor without further growth.
func (t *Table) reserve(total int) {
	slots := len(t.head)
	for slots*3 < total*4 {
		slots *= 2
	}
	if slots > len(t.head) {
		t.grow(slots)
	}
}

// grow re-seats every chain head into a larger slot array. The arena and
// its chains are untouched: only the distinct keys rehash. The new arrays
// come zero-initialized from make, and 0 already means "empty slot".
func (t *Table) grow(slots int) {
	oldKeys, oldHead := t.keys, t.head
	t.keys = make([]int64, slots)
	t.head = make([]int32, slots)
	t.mask, t.shift = uint64(slots-1), slotShift(slots)
	for s, h := range oldHead {
		if h == 0 {
			continue
		}
		k := oldKeys[s]
		d := t.home(k)
		for t.head[d] != 0 {
			d = (d + 1) & t.mask
		}
		t.keys[d] = k
		t.head[d] = h
	}
}

// First returns the arena index of the most recently inserted tuple whose
// key attribute equals k, or a negative index if none. Iterate the full
// duplicate chain with Next:
//
//	for i := t.First(k); i >= 0; i = t.Next(i) {
//	    tp := t.At(i)
//	}
//
// The loop allocates nothing.
func (t *Table) First(k int64) int32 {
	s, ok := t.lookup(k)
	if !ok {
		return -1
	}
	return t.head[s] - 1
}

// lookup returns the slot of key k, and false when no entry has it.
func (t *Table) lookup(k int64) (uint64, bool) {
	for s := t.home(k); t.head[s] != 0; s = (s + 1) & t.mask {
		if t.keys[s] == k {
			return s, true
		}
	}
	return 0, false
}

// Next returns the arena index of the next tuple with the same key as entry
// i, or a negative index at the end of the chain.
func (t *Table) Next(i int32) int32 { return t.next[i] - 1 }

// At returns the tuple stored at arena index i.
func (t *Table) At(i int32) relation.Tuple {
	return relation.Tuple{Unique1: t.u1[i], Unique2: t.u2[i], Check: t.check[i]}
}

// Delete removes one instance of tp (matched on all three columns) and
// reports whether one was found. The freed arena row goes on the free list
// for the next insert; a slot whose chain empties is removed by
// backward-shift deletion, so no tombstones accumulate and the probe
// loops' invariants are untouched. Delete allocates nothing.
func (t *Table) Delete(tp relation.Tuple) bool {
	s, ok := t.lookup(tp.Get(t.attr))
	return ok && t.deleteAt(s, tp)
}

// deleteAt removes one instance of tp from the chain of slot s, its key's,
// and reports whether one was found (Delete).
func (t *Table) deleteAt(s uint64, tp relation.Tuple) bool {
	var prev int32
	for e := t.head[s]; e != 0; {
		j := e - 1
		if t.u1[j] == tp.Unique1 && t.u2[j] == tp.Unique2 && t.check[j] == tp.Check {
			nxt := t.next[j]
			switch {
			case prev != 0:
				t.next[prev-1] = nxt
			case nxt != 0:
				t.head[s] = nxt
			default:
				t.clearSlot(s)
			}
			t.next[j] = t.free
			t.free = e
			t.live--
			return true
		}
		prev, e = e, t.next[j]
	}
	return false
}

// clearSlot empties slot s by backward-shift deletion: scan forward
// through the probe cluster and move any entry whose ideal slot cannot
// reach it past the new hole back into the hole, repeating from the
// entry's old position until the cluster ends. Lookups that probe from any
// key's ideal slot then still find every remaining entry before an empty
// slot, with no tombstone state.
func (t *Table) clearSlot(s uint64) {
	t.used--
	t.head[s] = 0
	hole := s
	for j := s; ; {
		j = (j + 1) & t.mask
		if t.head[j] == 0 {
			return
		}
		ideal := t.home(t.keys[j])
		// The entry at j may move into the hole unless its ideal slot lies
		// cyclically in (hole, j] — then it is still reachable from ideal
		// without passing the hole.
		if (j-ideal)&t.mask >= (j-hole)&t.mask {
			t.keys[hole] = t.keys[j]
			t.head[hole] = t.head[j]
			t.head[j] = 0
			hole = j
		}
	}
}

// retract removes one instance of every row of b, as Delete one by one
// would, and compacts b to the rows it found, in the probe's two phases:
// every row's key is resolved to its slot for the whole batch first, in one
// loop whose lookups do not wait for each other, and the rows are then
// unlinked at their slots. A slot that a row's deletion empties shifts the
// rest of its cluster back (clearSlot), so a later row whose slot no longer
// holds its key is resolved again.
func (t *Table) retract(b *relation.Batch) {
	keys := b.Col(t.attr)
	if cap(t.heads) < len(keys) {
		t.heads = make([]int32, len(keys), cap(keys))
	}
	at := t.heads[:len(keys)]
	for i, k := range keys {
		s, ok := t.lookup(k)
		at[i] = int32(s)
		if !ok {
			at[i] = -1
		}
	}
	n := 0
	for i, k := range keys {
		s, ok := uint64(at[i]), at[i] >= 0
		if ok && (t.head[s] == 0 || t.keys[s] != k) {
			s, ok = t.lookup(k)
		}
		if ok && t.deleteAt(s, b.Tuple(i)) {
			b.U1[n], b.U2[n], b.Check[n] = b.U1[i], b.U2[i], b.Check[i]
			n++
		}
	}
	b.U1, b.U2, b.Check = b.U1[:n], b.U2[:n], b.Check[:n]
}

// DeleteBatch removes one instance of every tuple in a columnar batch and
// returns how many were found.
func (t *Table) DeleteBatch(b *relation.Batch) int {
	found := 0
	for i, n := 0, b.Len(); i < n; i++ {
		if t.Delete(b.Tuple(i)) {
			found++
		}
	}
	return found
}

// probeBatch streams a whole columnar batch through t — the vectorized
// probe every hot loop uses. Phase one hashes the batch's pa column in one
// tight loop, resolving each key to its chain head (index+1; 0 = no
// match); phase two walks the duplicate chains and appends result tuples
// column-wise to dst, through dst's three columns held in locals and stored
// back once, so a match costs three appends and no writes through dst.
// probeIsLower orients the result: the paper's chain join emits
// (lower.Unique1, higher.Unique2, combined check) regardless of which
// operand built the table. heads is the caller's reusable scratch,
// returned re-sliced: it is sized to the batch's capacity at once, so the
// batches of one pool need it allocated a single time; phase two leaves
// in it where each row's matches end. Given tags, a third pass appends to
// tags.Rows the tag of every match's key, computed once per probing row
// that matched (Spec.Tags).
// An empty table matches nothing, so the probe returns at once: FP's
// pipelining joins probe empty tables while their first operand streams in,
// and a simple join's build batches probe the nil table it has instead of a
// probe-side one.
func probeBatch(dst *relation.Batch, t *Table, b *relation.Batch, pa relation.Attr, probeIsLower bool, heads []int32, tags *Tags) []int32 {
	if t.Len() == 0 {
		return heads
	}
	keys := b.Col(pa)
	if cap(heads) < len(keys) {
		heads = make([]int32, len(keys), cap(keys))
	}
	heads = heads[:len(keys)]
	mask, shift := t.mask, t.shift
	for i, k := range keys {
		s := hashKey(k) >> shift
		var e int32
		for t.head[s] != 0 {
			if t.keys[s] == k {
				e = t.head[s]
				break
			}
			s = (s + 1) & mask
		}
		heads[i] = e
	}
	// Phase two leaves in heads[i] where row i's matches end in dst, which
	// is all the tags need: they never walk a chain twice.
	start := int32(len(dst.U1))
	u1, u2, ck := dst.U1, dst.U2, dst.Check
	if probeIsLower {
		for i, e := range heads {
			for e != 0 {
				j := e - 1
				u1 = append(u1, b.U1[i])
				u2 = append(u2, t.u2[j])
				ck = append(ck, relation.CombineChecks(b.Check[i], t.check[j]))
				e = t.next[j]
			}
			heads[i] = int32(len(u1))
		}
	} else {
		for i, e := range heads {
			for e != 0 {
				j := e - 1
				u1 = append(u1, t.u1[j])
				u2 = append(u2, b.U2[i])
				ck = append(ck, relation.CombineChecks(t.check[j], b.Check[i]))
				e = t.next[j]
			}
			heads[i] = int32(len(u1))
		}
	}
	if tags != nil {
		bk, of, tg := tags.Bk, tags.Of, tags.Rows
		for i, end := range heads {
			if end > start {
				tag := of[bk.Bucket(keys[i])]
				for ; start < end; start++ {
					tg = append(tg, tag)
				}
			}
		}
		tags.Rows = tg
	}
	dst.U1, dst.U2, dst.Check = u1, u2, ck
	return heads
}

// ProbeBatchInto is the exported form of probeBatch for callers that hold
// bare tables rather than join state (kernel measurements probe a table
// directly): the whole batch's pa column is hashed in one pass, then
// matches are appended column-wise to dst. probeIsLower orients the result
// tuple; heads is the caller's reusable scratch, returned re-sliced.
func (t *Table) ProbeBatchInto(dst *relation.Batch, b *relation.Batch, pa relation.Attr, probeIsLower bool, heads []int32) []int32 {
	return probeBatch(dst, t, b, pa, probeIsLower, heads, nil)
}

// probe is probeBatch with the table's own scratch, which the recycle pool
// hands on with its memory: the joins' probes allocate none once the pool is
// warm. Given tags, tags.Rows becomes the tag of each row it appended to
// dst (see Spec.Tags). A nil table matches nothing.
func (t *Table) probe(dst, b *relation.Batch, pa relation.Attr, probeIsLower bool, tags *Tags) {
	if tags != nil {
		tags.Rows = tags.Rows[:0]
	}
	if t.Len() > 0 {
		t.heads = probeBatch(dst, t, b, pa, probeIsLower, t.heads, tags)
	}
}

// Matches returns the tuples whose key attribute equals k (nil if none).
// It allocates a fresh slice per call; hot paths iterate First/Next instead.
func (t *Table) Matches(k int64) []relation.Tuple {
	var out []relation.Tuple
	for i := t.First(k); i >= 0; i = t.Next(i) {
		out = append(out, t.At(i))
	}
	return out
}

// Len returns the number of stored tuples (inserted minus deleted).
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.live
}

// MemBytes returns the resident size of the table's backing arrays — slot
// arrays plus the full arena capacity, including free-listed rows — the
// figure a resident view charges against the shared memory meter.
func (t *Table) MemBytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.head))*12 + int64(cap(t.u1))*28
}

// Attr returns the key attribute.
func (t *Table) Attr() relation.Attr { return t.attr }

// Pipelining is the state of one hash-join instance, pipelining or simple.
//
// As an optimization, an operand's tuples are inserted into that operand's
// hash table only while the *other* operand is still open: once the other
// side has ended, no future arrival can need the insertion, so the tuple
// only probes (one table action instead of two). On a right-linear tree,
// where every build operand is a base relation that ends quickly, the
// pipelining join therefore degenerates to simple-hash-join behaviour —
// which is why RD and FP coincide on right-linear trees (Figure 13). The
// simple join is that behaviour from the start: its caller closes the build
// side before the first probe batch.
//
// A side's table exists only while it can still be probed. It is created,
// sized from the constructor's hint, by the first batch inserted into it, so
// a side whose other operand ended first never gets one; and closing an
// operand gives back the other side's table, which no future arrival can
// probe, to the recycle pool. A simple join therefore holds one table for
// its whole life, a pipelining join two only while both operands are open,
// and a resident join, which never closes a side, both.
//
// A batch goes into a table through InsertBatchRadix, so a whole
// materialized operand (the sequential reference, a Grace partition) is
// built slot-ordered, while transport batches take the plain bulk insert.
type Pipelining struct {
	spec        Spec
	hint        int    // the capacity a table is created with
	buildTable  *Table // tuples seen on the build side; nil when it has none
	probeTable  *Table // tuples seen on the probe side; nil when it has none
	buildClosed bool
	probeClosed bool
	unmatched   int64 // RetractInto's dropped rows since the last Unmatched
}

// NewPipeliningSized returns a fresh hash-join holding no table yet; each
// table it creates has capacity for hint tuples before any growth. It is a
// value, so the process that runs it keeps it in its own state. Used as
// a simple (build-probe) join, the caller closes the build side before the
// first probe batch — the engine holds early probe input, which is exactly
// the blocking behaviour of the algorithm — and must not close the probe
// side before the build side: the held probe input has not been applied
// yet, and the build batches still to come need the table.
func NewPipeliningSized(spec Spec, hint int) Pipelining {
	return Pipelining{spec: spec, hint: hint}
}

// insert adds b to a side's table t, creating the table on the side's first
// insert, and returns it.
func (j *Pipelining) insert(t *Table, attr relation.Attr, b *relation.Batch) *Table {
	if t == nil {
		t = NewTableSized(attr, j.hint)
	}
	t.InsertBatchRadix(b)
	return t
}

// FromBuildSideBatchInto consumes a columnar batch arriving on the build
// operand: the whole batch probes the probe-side table (vectorized
// two-phase probe, matches appended to dst) and, while the probe operand is
// still open, is bulk-inserted into the build-side table. Probing before
// inserting is equivalent to the per-tuple interleave because the two
// tables index different operands.
func (j *Pipelining) FromBuildSideBatchInto(dst, b *relation.Batch) {
	j.probeTable.probe(dst, b, j.spec.BuildAttr(), j.spec.BuildIsLower, j.spec.Tags)
	if !j.probeClosed {
		j.buildTable = j.insert(j.buildTable, j.spec.BuildAttr(), b)
	}
}

// FromProbeSideBatchInto consumes a columnar batch arriving on the probe
// operand, symmetrically to FromBuildSideBatchInto.
func (j *Pipelining) FromProbeSideBatchInto(dst, b *relation.Batch) {
	j.buildTable.probe(dst, b, j.spec.ProbeAttr(), !j.spec.BuildIsLower, j.spec.Tags)
	if !j.buildClosed {
		j.probeTable = j.insert(j.probeTable, j.spec.ProbeAttr(), b)
	}
}

// RetractInto consumes a columnar batch of deletions arriving on one operand
// (the build operand when build is set): each row is deleted from that
// operand's table, the rows found probe the other table — appending to dst
// the result tuples they had produced — and the rows that matched nothing
// are dropped, since they cannot have contributed, and counted (Unmatched):
// on a side with no table yet, every row. b is compacted in place to the
// rows found.
func (j *Pipelining) RetractInto(dst, b *relation.Batch, build bool) {
	own, other, attr, lower := j.probeTable, j.buildTable, j.spec.ProbeAttr(), !j.spec.BuildIsLower
	if build {
		own, other, attr, lower = j.buildTable, j.probeTable, j.spec.BuildAttr(), j.spec.BuildIsLower
	}
	n := b.Len()
	if own == nil {
		b.U1, b.U2, b.Check = b.U1[:0], b.U2[:0], b.Check[:0]
	} else {
		own.retract(b)
	}
	j.unmatched += int64(n - b.Len())
	other.probe(dst, b, attr, lower, j.spec.Tags)
}

// Tags returns the tag of each result row the last batch call appended to
// dst, in order, when the join's Spec has Tags (its Rows, valid until the
// next call); nil otherwise.
func (j *Pipelining) Tags() []int32 {
	if j.spec.Tags == nil {
		return nil
	}
	return j.spec.Tags.Rows
}

// Unmatched returns how many deletions RetractInto dropped since the last
// call.
func (j *Pipelining) Unmatched() int64 {
	u := j.unmatched
	j.unmatched = 0
	return u
}

// AppendResult appends to rel the join of the two tables as they stand:
// each occupied build-side slot probes the probe-side table with its key,
// and every pair of chain entries is combined by Spec.Result. A resident
// join's tables hold both operands whole, so this is its result multiset; a
// join with a side without a table appends nothing.
func (j *Pipelining) AppendResult(rel *relation.Relation) {
	b, p := j.buildTable, j.probeTable
	if b.Len() == 0 || p.Len() == 0 {
		return
	}
	for s, h := range b.head {
		if h == 0 {
			continue
		}
		first := p.First(b.keys[s])
		for e := h - 1; first >= 0 && e >= 0; e = b.Next(e) {
			for i := first; i >= 0; i = p.Next(i) {
				rel.Tuples = append(rel.Tuples, j.spec.Result(b.At(e), p.At(i)))
			}
		}
	}
}

// MemBytes returns the resident size of the tables the join holds
// (Table.MemBytes); a side without one counts as empty.
func (j *Pipelining) MemBytes() int64 { return j.buildTable.MemBytes() + j.probeTable.MemBytes() }

// CloseBuildSide declares the build operand ended: probe-side tuples stop
// being inserted (one table action per tuple instead of two), and the
// probe-side table, which no build tuple will probe again, is given back.
func (j *Pipelining) CloseBuildSide() {
	j.buildClosed = true
	j.probeTable.Release()
	j.probeTable = nil
}

// CloseProbeSide declares the probe operand ended and gives back the
// build-side table, symmetrically to CloseBuildSide.
func (j *Pipelining) CloseProbeSide() {
	j.probeClosed = true
	j.buildTable.Release()
	j.buildTable = nil
}

// SideClosed reports whether the given side (build=true) has ended.
func (j *Pipelining) SideClosed(build bool) bool {
	if build {
		return j.buildClosed
	}
	return j.probeClosed
}

// Sizes returns the number of tuples stored in the build- and probe-side
// tables; the pipelining algorithm's extra memory cost is their sum while
// both operands are open. A side without a table — a simple join's probe
// side, the side whose other operand has ended — reports 0.
func (j *Pipelining) Sizes() (build, probe int) {
	return j.buildTable.Len(), j.probeTable.Len()
}

// Release recycles both tables, leaving the join without any: a second
// Release does nothing. Any tuple slice previously returned by reference
// must not be used afterwards.
func (j *Pipelining) Release() {
	j.buildTable.Release()
	j.probeTable.Release()
	j.buildTable, j.probeTable = nil, nil
}

// Join runs a complete join of two materialized relations with the given
// spec, using the pipelining algorithm if pipelined is set and the simple
// algorithm otherwise. Both produce the same multiset; the flag exists so
// tests can assert exactly that. The simple join builds from the whole
// build operand as one batch (the radix-partitioned bulk insert), closes
// it and probes with the whole probe operand; the pipelining join takes
// the operands in alternating 16-row batches to exercise the symmetric path.
func Join(build, probe *relation.Relation, spec Spec, pipelined bool) *relation.Relation {
	var bb, pb, res relation.Batch
	bb.AppendTuples(build.Tuples)
	pb.AppendTuples(probe.Tuples)
	var j Pipelining
	if pipelined {
		j = NewPipeliningSized(spec, max(bb.Len(), pb.Len()))
		const chunk = 16
		for lo := 0; lo < max(bb.Len(), pb.Len()); lo += chunk {
			b := bb.View(min(lo, bb.Len()), min(lo+chunk, bb.Len()))
			j.FromBuildSideBatchInto(&res, &b)
			p := pb.View(min(lo, pb.Len()), min(lo+chunk, pb.Len()))
			j.FromProbeSideBatchInto(&res, &p)
		}
	} else {
		j = NewPipeliningSized(spec, bb.Len())
		j.FromBuildSideBatchInto(&res, &bb)
		j.CloseBuildSide()
		j.FromProbeSideBatchInto(&res, &pb)
	}
	j.Release()
	out := relation.New("join", build.TupleBytes)
	res.AppendTo(out)
	return out
}
