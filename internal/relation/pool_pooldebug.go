//go:build pooldebug

package relation

import "fmt"

// batchDebug (built with -tags pooldebug) enforces the pool's ownership
// discipline at run time instead of assuming it:
//
//   - double Put: returning a batch that is already in a pool panics;
//   - use after Put: Put poisons every column's full capacity with sentinel
//     values, and Get verifies the poison is intact before handing the batch
//     out — any write through a stale alias between Put and the next Get
//     panics at the Get that would have exposed the corruption.
//
// The spill path's release-after-serialize discipline (serialize a batch to
// disk, then Put it) is exactly what this checks: a Put before the write
// completed, or a second Put of the same batch, is caught deterministically
// rather than surfacing as a corrupted join result.
//
// The mark travels with the batch, not with a pool: a batch put into two
// pools is a double Put too, and a batch its pool let go — a session pool's
// full free list drops it, a shared pool's sync.Pool gives it to the
// collector — keeps its mark, so a stale owner's second Put is still caught,
// while the collector is free to reclaim it.
type batchDebug struct{ pooled bool }

// Poison sentinels per column. The values are implausible for real data
// (join attributes are non-negative).
const (
	poisonU1    = int64(-0x6b6f6c626f6f70)
	poisonU2    = int64(-0x6465616462656566)
	poisonCheck = uint64(0xdeadbeefdeadbeef)
)

// debugGet verifies the poison of a batch leaving a pool's idle store and
// clears its mark.
func debugGet(b *Batch) {
	u1, u2, ck := b.U1[:b.Cap()], b.U2[:cap(b.U2)], b.Check[:cap(b.Check)]
	for i := range u1 {
		if u1[i] != poisonU1 || u2[i] != poisonU2 || ck[i] != poisonCheck {
			panic(fmt.Sprintf("relation: pooldebug: use after Put: batch %p slot %d was modified while in the pool", b, i))
		}
	}
	b.dbg.pooled = false
}

// debugPut marks a batch entering a pool and poisons its columns.
func debugPut(b *Batch) {
	if b.dbg.pooled {
		panic(fmt.Sprintf("relation: pooldebug: double Put of batch %p", b))
	}
	b.dbg.pooled = true
	u1, u2, ck := b.U1[:b.Cap()], b.U2[:cap(b.U2)], b.Check[:cap(b.Check)]
	for i := range u1 {
		u1[i] = poisonU1
	}
	for i := range u2 {
		u2[i] = poisonU2
	}
	for i := range ck {
		ck[i] = poisonCheck
	}
}
